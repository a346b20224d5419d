#!/usr/bin/env bash
# Object-code guard for three hazards gcc has introduced silently:
#
#  * Deleted prefetches. gcc infers a non-inlined helper whose body holds
#    only __builtin_prefetch to be side-effect free and deletes its calls,
#    so a prefetching loop can lose every prefetch without any test noticing
#    (only the speed drops; a slice schedule once shipped with none). On the
#    write path every CuckooTable<K, V, W>::BatchInsert and BatchUpdate
#    instantiation (3 key types x 2 writer policies x 2 ops, libsimdht_ht.a)
#    must contain a prefetch instruction; on the read path so must every
#    batched-lookup loop that honours ProbeBatch::prefetch_distance
#    (libsimdht_simd.a): the 72 horizontal detail::ProbeLoop instantiations
#    (SSE 18, AVX2 27, AVX-512 27) and the 3 scalar-twin ScalarLookup ones.
#  * Dirty YMM state. An AVX2 mutation-scan kernel that returns (or tail-
#    jumps out) without vzeroupper leaves the upper YMM state dirty, and
#    every legacy-SSE instruction its caller runs next pays for it (once a
#    16x slowdown of libm's exp/log). Every exit of every function in
#    mutation_avx2.cc.o that touches a YMM register must follow a vzeroupper
#    inside the same basic block.
#  * Per-group dispatch. Every SwissTable operation scans its control
#    groups with the force-inlined ScanSwissGroup; a scan reached through a
#    function pointer costs a call and a store-forwarding stall per probed
#    group. No SwissTable<K, V> member in swiss_table.cc.o may contain an
#    indirect call, and all 10 members defined there (x 3 key types) must
#    be found.
#
#   scripts/check_codegen.sh [build-dir]    # default: build (default preset)
#
# Exits 1 naming each offending symbol, 2 when a library is missing.
set -euo pipefail
cd "$(dirname "$0")/.."

build_dir="${1:-build}"
libs=("${build_dir}/src/ht/libsimdht_ht.a" "${build_dir}/src/simd/libsimdht_simd.a")
for lib in "${libs[@]}"; do
  if [ ! -f "${lib}" ]; then
    echo "check_codegen: ${lib} not found (build the preset first)" >&2
    exit 2
  fi
done

objdump -dr -C --no-show-raw-insn "${libs[@]}" | python3 -c '
import re
import sys

WRITE_RE = re.compile(r"^simdht::CuckooTable<(.*)>::(BatchInsert|BatchUpdate)\(")
EXPECTED_WRITES = 12
# Demangled read-loop symbols start with their return type.
READ_RES = [
    (re.compile(r"^unsigned long simdht::detail::ProbeLoop<"),
     "detail::ProbeLoop", 72),
    (re.compile(r"^unsigned long simdht::\(anonymous namespace\)::"
                r"ScalarLookup<"), "ScalarLookup", 3),
]
SWISS_RE = re.compile(r"^simdht::SwissTable<.*>::[~\w]+\(")
SWISS_DEFINED_RE = re.compile(
    r"^simdht::SwissTable<.*>::(SwissTable|RestoreState|Find|Locate|Insert|"
    r"BatchInsert|BatchUpdate|UpdateValue|Erase|PurgeTombstones)\(")
EXPECTED_SWISS_DEFINED = 30

obj = None
funcs = []  # [object, symbol, [[address, text, relocated]]]
for line in sys.stdin:
    line = line.rstrip("\n")
    m = re.match(r"^(\S+\.o):\s+file format", line)
    if m:
        obj = m.group(1)
        continue
    m = re.match(r"^[0-9a-f]+ <(.*)>:$", line)
    if m:
        funcs.append((obj, m.group(1), []))
        continue
    m = re.match(r"^\s+([0-9a-f]+):\s+(.*)$", line)
    if m and funcs:
        text = m.group(2).strip()
        if text.startswith("R_X86_64"):  # relocation of the last instruction
            if funcs[-1][2]:
                funcs[-1][2][-1][2] = True
        else:
            funcs[-1][2].append([int(m.group(1), 16), text, False])

failures = []

writes = [(s, ins) for o, s, ins in funcs if WRITE_RE.match(s)]
for sym, ins in writes:
    if not any(text.startswith("prefetch") for _, text, _ in ins):
        failures.append("no prefetch instruction in " + sym)
if len(writes) != EXPECTED_WRITES:
    failures.append("found %d CuckooTable BatchInsert/BatchUpdate symbols, "
                    "expected %d" % (len(writes), EXPECTED_WRITES))

reads = 0
for read_re, what, expected in READ_RES:
    found = [(s, ins) for o, s, ins in funcs if read_re.match(s)]
    for sym, ins in found:
        if not any(text.startswith("prefetch") for _, text, _ in ins):
            failures.append("no prefetch instruction in " + sym)
    if len(found) != expected:
        failures.append("found %d %s symbols, expected %d"
                        % (len(found), what, expected))
    reads += len(found)

swiss = [(s, ins) for o, s, ins in funcs
         if o == "swiss_table.cc.o" and SWISS_RE.match(s)]
for sym, ins in swiss:
    for addr, text, _ in ins:
        if re.match(r"^call\w*\s+\*", text):
            failures.append("indirect call at 0x%x in %s" % (addr, sym))
defined = sum(1 for s, _ in swiss if SWISS_DEFINED_RE.match(s))
if defined != EXPECTED_SWISS_DEFINED:
    failures.append("found %d SwissTable members defined in swiss_table.cc, "
                    "expected %d" % (defined, EXPECTED_SWISS_DEFINED))

def jump(sym, text):
    """(target address or None, leaves the function) for a jump, else None."""
    m = re.match(r"^j\w*\s+([0-9a-f]+)\s+<(.*)>", text)
    if not m:
        return None
    inside = m.group(2) == sym or m.group(2).startswith(sym + "+")
    return int(m.group(1), 16), not inside

avx2 = [(s, ins) for o, s, ins in funcs
        if o == "mutation_avx2.cc.o" and any("%ymm" in t for _, t, _ in ins)]
for sym, ins in avx2:
    targets = set()
    for _, text, relocated in ins:
        j = jump(sym, text)
        if j and not relocated and not j[1]:
            targets.add(j[0])
    block = []  # instructions since the last basic-block boundary
    for addr, text, relocated in ins:
        if addr in targets:
            block = []
        j = jump(sym, text)
        leaves = text.startswith("ret") or (
            j is not None and text.startswith("jmp") and (relocated or j[1]))
        if leaves and not any(t.startswith("vzeroupper") for t in block):
            failures.append("exit without vzeroupper at 0x%x in %s"
                            % (addr, sym))
        block.append(text)
        if j is not None or text.startswith("ret"):
            block = []
if not avx2:
    failures.append("no YMM-using function found in mutation_avx2.cc.o")

for f in failures:
    print("check_codegen: FAIL: " + f, file=sys.stderr)
if failures:
    sys.exit(1)
print("check_codegen: %d batched-write and %d batched-read symbols "
      "prefetch, %d AVX2 scan functions clear YMM state on every exit, %d "
      "SwissTable members make no indirect call - OK"
      % (len(writes), reads, len(avx2), len(swiss)))
'
