#!/usr/bin/env bash
# Tier-1 verification: build, full test suite, lint wall, format check,
# paper-claims suite, crash-matrix suite, host-fault matrix,
# trace/checkpoint/integrity smokes, ignored-test triage gate. The full
# suite includes the docs budget, tests/docs_budget.rs: DESIGN.md and
# EXPERIMENTS.md at most 40,000 bytes each, no change named by number in
# them or README.md, and every citation of a DESIGN.md section or an
# EXPERIMENTS.md heading in the tree resolving to a heading.
set -euo pipefail
cd "$(dirname "$0")/.."

# `cargo test <args> -- <names>`, after checking that each name matches a
# test of the selected targets: a filter that matches nothing runs no test
# and passes, so a renamed or deleted test would drop out of its gate.
named_tests() {
  local args=() names=() listed name
  while [[ $# -gt 0 && $1 != -- ]]; do
    args+=("$1")
    shift
  done
  shift
  names=("$@")
  listed=$(cargo test -q --offline "${args[@]}" -- --list 2>/dev/null | grep ': test$' || true)
  for name in "${names[@]}"; do
    if ! grep -qF -- "$name" <<<"$listed"; then
      echo "verify: FAILED (no test matches '$name' in: cargo test ${args[*]})" >&2
      exit 1
    fi
  done
  cargo test -q --offline "${args[@]}" -- "${names[@]}"
}

cargo build --release --offline --workspace
cargo build --release --offline --workspace --examples
# The repo benchmark is a standalone crate (own workspace, path
# dependencies on ../crates/*): build it here so a library API change
# that breaks it fails this gate, not the benchmark pipeline's run.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --workspace

# Every synthetic database, named so a filter cannot drop it: the
# residue and id digests over every generator, the bucketed residue
# sampler held to the binary search it replaced, and the FASTA round trip
# of every preset (with the headers write_fasta must refuse).
cargo test -q --offline -p sw-db --test synth_digest
named_tests -p sw-db --lib -- \
  every_clean_bucket_answers_the_reference_at_both_ends \
  draws_around_every_cumulative_weight_match_the_reference \
  seeded_draws_match_the_reference \
  every_preset_round_trips_through_fasta \
  headers_that_would_not_parse_back_are_refused

# The paper-claims regression suite, the crash matrix and the simulator's
# safety net (both pinned count snapshots, the cross-cutting invariants and
# the shape-mixing differential proptests), named explicitly so a
# workspace filter can never silently drop them (see EXPERIMENTS.md).
# Every one of them is bound by gpu-sim's host speed, so the step's wall
# time is printed: the first place that speed shows outside benchmark/.
# The snapshots and invariants run in the release profile too, against the
# same files under tests/snapshots/ — the AVX2 instantiations and the
# inlining they rest on only exist with optimizations — and the column
# update's two instantiations are held to each other by name.
named_t0=$SECONDS
cargo test -q --offline --test paper_claims --test observability --test conformance \
  --test crash_matrix --test device_opt --test simulator_invariants
cargo test --release -q --offline --test device_opt --test simulator_invariants
cargo test -q --offline -p gpu-sim --test proptests
named_tests -p cudasw-core --lib -- column::
# One search loop, by name: plain and resilient search agree in every
# field over the flag matrix; every kill point, damaged log and lost shard
# resumes bit-identically with the optimizations off and all on; the one
# multi-GPU function counts each shard search under its device lane and a
# plain search's span tree is what it was.
named_tests --test device_opt --test crash_matrix --test observability -- \
  all_128_combinations_score_bit_identically \
  every_launch_kill_point_resumes_bit_identically \
  torn_or_corrupt_checkpoint_tail_resumes_from_the_intact_prefix \
  multi_gpu_restart_replays_per_shard_logs \
  multi_gpu_counts_each_shard_search_under_its_device_lane \
  search_trace_has_nested_phase_kernel_and_transfer_spans
# A launch's blocks run on several host threads, by name: twenty repeats
# of every kernel's multi-block launch agree in every counter, score and
# device word (in the release profile too, where the AVX2 instantiations
# run); a block that touches a word another block wrote, directly or
# through the texture, fails its launch in the release profile too;
# gpu-sim's public arithmetic refuses what would overflow; Table I's
# global counts depend on the lengths alone. The cross-block and Table I
# cases, like both count snapshots above, run every launch on 1, 2, 3, 5
# and 14 host workers (`GpuDevice::with_host_workers`), whatever this host
# has.
named_tests --test simulator_invariants -- repeated_multi_block_launches_are_bit_identical
named_tests --release --test simulator_invariants -- \
  repeated_multi_block_launches_are_bit_identical
named_tests -p gpu-sim --lib -- kernel::tests::public_arithmetic_is_checked
named_tests --release -p gpu-sim --lib -- a_word_another_block_wrote_fails_the_launch
named_tests --test simulator_invariants -- table1_counts_depend_on_lengths_only
echo "verify: named simulator suites took $((SECONDS - named_t0)) s"

# Decoders that cannot abort or over-allocate, by name: seeded truncations,
# bit flips and inflated length fields of a checkpoint log, a FASTA file
# and a JSON document, under an allocator that refuses any request over
# 1 GiB.
cargo test -q --offline --test decoders

# The mutant list still names one search string per entry and only tests
# that exist (reads sources, builds nothing; scripts/mutants.sh runs it).
bash scripts/mutants.sh --check

cargo clippy --workspace --all-targets --offline -- -D warnings
cargo fmt --check
# The API docs build without a warning: every intra-doc link resolves.
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace --offline

# Crash-only lint wall: sw-simd, sw-serve, sw-gateway, gpu-sim and
# cudasw-core deny clippy::unwrap_used / clippy::expect_used in non-test
# code at the crate level (#![cfg_attr(not(test), deny(...))] in each
# lib.rs — the lints must be denied by attribute, not by -D flags here,
# because command-line -D leaks into the path-dependency shims). This
# named invocation keeps the gate attributable even if the
# workspace-wide clippy line changes.
cargo clippy -q --offline -p sw-simd -p sw-serve -p sw-gateway -p gpu-sim -p cudasw-core \
  --lib -- -D warnings

# The host SIMD backend's differential suites, by name. Every build
# compiles the portable backend (the array vectors of portable.rs, the only
# backend on a target without a native one) beside the native ones, and
# each suite below runs it: the hand-off suite, because the byte→word
# hand-off re-stripes between lane widths that differ per backend (and
# holds the overflow verdict to one answer across backends and kernel
# modes, and each lane of the grouped byte pass to the striped pass's
# hand-off); the peel suite, because the portable instantiation of the
# column loop is the one no native run takes (and it bounds the Lazy-F
# repair per column on both routes); the chunking suite, because the
# pool's grouped pass runs per available backend there. The byte-lane
# contract (the grouped pass's lookup included), the bounded-exhaustive
# conformance run (through the striped and the grouped entries) and the
# operation budget of both column loops ride the same line: the first two
# hold every byte encoding to one set of scores, the third counts the
# generic loops on the portable vector.
cargo test -q --offline -p sw-simd --test handoff_differential --test peel_differential \
  --test pool_chunking --test vector_contract --test bounded_exhaustive --test op_budget
# The hand-off, bounded-exhaustive and chunking suites again in the release
# profile: the AVX2 grouped passes the benchmark runs are inlined into
# `group_avx2` (and the striped ones into `score_avx2`) only with
# optimizations, so this is the run that holds the code the scans execute
# to the striped passes and the oracle, and the chunking suite runs the
# streamed passes as the pool runs them, over whole chunks.
cargo test --release -q --offline -p sw-simd --test handoff_differential --test bounded_exhaustive \
  --test pool_chunking

# Crash-only host engine: the seeded host-fault matrix (>=3 seeds x
# {panic, stall, alloc-fail}, each cell's published cudasw.simd.pool.*
# counters equal to its fault report, chaos storms that land on every
# seed) and the all-or-nothing cancellation properties, each on every
# available backend, named explicitly so a filter can never silently drop
# them (see DESIGN.md §15).
cargo test -q --offline -p sw-simd --test host_faults --test cancel_props

# One job shape: the wave cases, named so a filter cannot drop them. The
# pool's wave differential (k queries in one job equal k searches, scores
# and stats, every backend; `pool_chunking` runs on the line above the
# fault matrix too) and the (query, sequence) exactly-once and mid-wave
# cancellation cases of the two suites just run.
named_tests -p sw-simd --test pool_chunking --test host_faults --test cancel_props -- wave

# One wave protocol and one device-lane ladder under both serving stacks,
# named for the same reason: the state machine's property test (arbitrary
# event orders, no threads) and unit cases, the `DeviceLane` rung cases,
# the simulated service's suites, and the gateway's (closed-loop
# multi-request waves, the forced cancel inside one, device faults, both
# clocks giving one answer).
named_tests -p sw-serve --lib -- machine:: lane::
cargo test -q --offline -p sw-serve --test machine_props --test resilience_props \
  --test batcher_props --test service_integration
cargo test -q --offline -p sw-gateway --test exactly_once --test drain_storm --test device_faults \
  --test clock_modes

# Every #[ignore] must carry a triage tag with an EXPERIMENTS.md entry:
#   #[ignore = "triage: <slug>"]
bad=0
while IFS= read -r hit; do
  file="${hit%%:*}"
  rest="${hit#*:}"
  line="${rest%%:*}"
  attr="${rest#*:}"
  slug=$(sed -n 's/.*#\[ignore = "triage: \([a-z0-9-]\+\)"\].*/\1/p' <<<"$attr")
  if [[ -z "$slug" ]]; then
    echo "verify: $file:$line: #[ignore] without 'triage: <slug>' reason" >&2
    bad=1
  elif ! grep -q "$slug" EXPERIMENTS.md; then
    echo "verify: $file:$line: triage slug '$slug' has no EXPERIMENTS.md entry" >&2
    bad=1
  fi
done < <(grep -rn '#\[ignore' --include='*.rs' crates src tests 2>/dev/null || true)
if [[ "$bad" -ne 0 ]]; then
  echo "verify: FAILED (untriaged ignored tests)" >&2
  exit 1
fi

repro() {
  cargo run -q --release --offline -p cudasw-bench --bin repro -- "$@"
}

# The documents written below hold simulated-clock numbers only: no
# wall-clock or revision field and one run per config, so each is a
# snapshot that must equal the committed file byte for byte (`cmp`), and
# its experiment asserts its own claims on every run. Wall-clock speed is
# the repo benchmark's (benchmark/, BENCHMARK.json).

# Trace-export smoke: `repro trace` must produce a Chrome trace_event file
# (it validates the trace before writing it and exits 1 if it is invalid)
# and a Prometheus text dump.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
repro trace table1 --out "$tmp/trace.json" --metrics "$tmp/metrics.prom" >/dev/null
grep -q '^cudasw_' "$tmp/metrics.prom"

# Checkpoint/resume smoke: a fresh chaos run writes per-shard logs, the
# resumed rerun must replay at least one chunk and still pass its own
# byte-for-byte score assertion.
repro chaos --checkpoint "$tmp/ckpt" >/dev/null
ls "$tmp/ckpt"/*.ckpt >/dev/null
# Capture, then grep: `grep -q` exits at first match and the closed pipe
# would panic repro's report printer with a broken-pipe error.
resume_out=$(repro chaos --checkpoint "$tmp/ckpt" --resume)
grep -q 'chunks replayed' <<<"$resume_out"

# Integrity smoke: one silent corruption must be detected, quarantined
# and recomputed on the host oracle (asserted inside the experiment).
repro integrity >/dev/null

# Chaos-soak snapshot: rolling faults across every lane (one full device
# loss with revival included) plus the host-lane fault storm riding the
# CPU fallback. The experiment asserts its SLOs on every run
# (availability, bit-identical replay, no duplicate answer, a storm that
# landed); the snapshot must equal the committed one byte for byte, so a
# changed recovery ladder shows here whether or not availability moves.
repro soak --smoke --out "$tmp/BENCH_soak.json" >/dev/null
cmp "$tmp/BENCH_soak.json" BENCH_soak.json

# Device-optimization snapshot: the §VII optimization matrix (boundary
# staging, shared-only kernel, cross-strip fusion, streamed H2D, SaLoBa
# balance) on the trimmed Fermi, full and smoke scale. The invariant gates
# run inside the experiment on both runs' measured values — identical
# score CRCs/bytes/cells across the matrix, the >=4x staging transaction
# cut, fusion hiding stalls the baseline exposes, the streamed-copy
# accounting identity, balance never worsening block skew — and
# `repro device-opt` exits non-zero if any fails. Every counted number
# must equal the committed snapshot byte for byte.
repro device-opt --out "$tmp/BENCH_device.json" >/dev/null
cmp "$tmp/BENCH_device.json" BENCH_device.json

# Simulated numbers only move on purpose: these experiments print nothing
# but counts and seconds off the simulated clock, so their stdout must
# equal the files captured under tests/golden/ by the last change that
# meant to move one (regenerate with `repro <exp> > tests/golden/<exp>.txt`
# and say why in CHANGES.md).
for exp in table1 table2 fig2 fig3 fig5 fig6 strips retune multigpu validation chaos integrity \
  serve ablation; do
  repro "$exp" | diff "tests/golden/$exp.txt" -
done

# A retired subcommand or flag is a usage error (exit 2), not a silent
# no-op. Each entry is a command line, split into words on purpose.
for retired in extensions serve-rt host-chaos host "gate x.json" "device-opt --smoke" \
  "device-opt --baseline BENCH_device.json" "gate BENCH_soak.json --baseline BENCH_soak.json"; do
  rc=0
  repro $retired >/dev/null 2>&1 || rc=$?
  if [[ "$rc" -ne 2 ]]; then
    echo "verify: FAILED (repro $retired exited $rc, expected usage error 2)" >&2
    exit 1
  fi
done

# The size the ROADMAP's "ends smaller" target is judged by.
bash scripts/loc.sh | tail -n 1

echo "verify: OK"
