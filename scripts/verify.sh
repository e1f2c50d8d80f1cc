#!/usr/bin/env sh
# Local mirror of the CI gate: hermetic build, tests, formatting, lints,
# then a smoke run of the observability pipeline.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace --offline"
cargo build --release --workspace --offline

echo "==> cargo test -q --workspace --offline"
cargo test -q --workspace --offline

echo "==> cargo fmt --all --check"
if rustup component list 2>/dev/null | grep -q "rustfmt.*(installed)"; then
    cargo fmt --all --check
else
    echo "    (rustfmt not installed, skipping)"
fi

echo "==> cargo clippy --workspace --all-targets --offline -- -D warnings"
if rustup component list 2>/dev/null | grep -q "clippy.*(installed)"; then
    cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "    (clippy not installed, skipping)"
fi

echo "==> cargo run --release -p xtask --offline -- lint"
cargo run --release -p xtask --offline -- lint

echo "==> sim_cli --check rejection smoke tests"
cli=./target/release/sim_cli
# Each class of illegal configuration must be rejected with a non-zero
# exit and its stable diagnostic code (see docs/diagnostics.md).
check_rejects() {
    code="$1"; shift
    if "$cli" --check "$@" > /dev/null 2>&1; then
        echo "FAIL: expected --check $* to exit non-zero ($code)" >&2
        exit 1
    fi
    "$cli" --check "$@" 2>&1 | grep -q "$code" || {
        echo "FAIL: expected $code in output of --check $*" >&2
        exit 1
    }
}
check_rejects USY020 --scheme UR --acc-width 4
check_rejects USY011 --scheme UR --cycles 256
check_rejects USY030 --scheme UR --wiring independent
check_rejects USY050 --scheme BP --no-sram --conv 27,27,96,5,5,1,256
# ...and the paper's byte-crawling configuration must pass clean.
"$cli" --check --scheme UR --cycles 128 --no-sram > /dev/null

echo "==> network abstract interpretation smoke tests"
# The interpreter must PROVE MNIST-CNN4 overflow-free at a 9-bit OREG
# (below the 14-bit worst case: exit 0 with USY060 proof notes)...
"$cli" --check --scheme UR --network mnist --acc-width 9 \
    | grep -q 'USY060' || {
    echo "FAIL: expected USY060 overflow-freedom proof at acc-width 9" >&2
    exit 1
}
# ...must prove saturation reachable at 4 bits...
check_rejects USY061 --scheme UR --network mnist --acc-width 4
# ...and must reject an early-termination point whose composed network
# error bound blows the accuracy budget.
check_rejects USY062 --scheme UR --network mnist --cycles 8 \
    --acc-budget 0.0001

echo "==> serve_cli --check serving-feasibility smoke tests"
serve=./target/release/serve_cli
# A provably overloaded plan with an impossible deadline must be
# rejected with both codes before any event is simulated...
if "$serve" --check --instances 1 --arrival-rate 100000000 \
    --deadline 0.0001 > /dev/null 2>&1; then
    echo "FAIL: expected overloaded serving plan to exit non-zero" >&2
    exit 1
fi
out=$("$serve" --check --instances 1 --arrival-rate 100000000 \
    --deadline 0.0001 2>&1 || true)
echo "$out" | grep -q USY070 || {
    echo "FAIL: expected USY070 in overloaded serving check" >&2
    exit 1
}
echo "$out" | grep -q USY072 || {
    echo "FAIL: expected USY072 in impossible-deadline serving check" >&2
    exit 1
}
# ...and a lightly loaded pool with a generous deadline passes clean.
"$serve" --check --instances 4 --arrival-rate 100 --deadline 1000 \
    > /dev/null

echo "==> sim_cli observability smoke test"
trace=$(mktemp /tmp/usystolic_trace.XXXXXX.json)
metrics=$(mktemp /tmp/usystolic_metrics.XXXXXX.json)
./target/release/sim_cli \
    --scheme UR --cycles 128 --shape edge --no-sram \
    --conv 31,31,96,5,5,1,256 \
    --trace "$trace" --metrics "$metrics" --json > /dev/null
grep -q '"traceEvents"' "$trace"
grep -q '"sim.dram_bytes"' "$metrics"
rm -f "$trace" "$metrics"

echo "==> kernel bench smoke test (fast paths vs serial bit-exactness)"
bench_json=$(mktemp /tmp/usystolic_kernel.XXXXXX.json)
./target/release/exp_kernel --short --out "$bench_json" > /dev/null
grep -q '"checksums_match":true' "$bench_json"
grep -q '"bit_exact":true' "$bench_json"
grep -q '"workers_consistent":true' "$bench_json"
grep -q '"temporal_bit_exact":true' "$bench_json"
grep -q '"hybrid_bit_exact":true' "$bench_json"
grep -q '"multiword_speedup"' "$bench_json"
rm -f "$bench_json"

echo "==> obs_cli perf-regression gate"
obs=./target/release/obs_cli
# Self-diff of the committed baseline is regression-free by definition.
"$obs" diff BENCH_kernel.json BENCH_kernel.json \
    --gate speedup --threshold 20 > /dev/null
# A fresh kernel bench must hold every baseline speedup within 20% —
# the substring gate covers speedup, temporal_speedup, hybrid_speedup
# and multiword_speedup alike.
# Full mode (~40 ms), matching how the committed baseline was produced:
# --short measures a smaller case whose ratio is not comparable.
kernel_now=$(mktemp /tmp/usystolic_kernel_now.XXXXXX.json)
./target/release/exp_kernel --out "$kernel_now" > /dev/null
"$obs" diff BENCH_kernel.json "$kernel_now" --gate speedup --threshold 20
# ...and the gate must actually bite: a synthetic regression exits 1.
kernel_bad=$(mktemp /tmp/usystolic_kernel_bad.XXXXXX.json)
printf '{"speedup":1.0}' > "$kernel_bad"
if "$obs" diff BENCH_kernel.json "$kernel_bad" \
    --gate speedup --threshold 20 > /dev/null 2>&1; then
    echo "FAIL: obs_cli diff did not flag a synthetic 97% regression" >&2
    exit 1
fi
rm -f "$kernel_now" "$kernel_bad"

echo "==> experiment captures (results/exp_*.txt reproduce byte for byte)"
# Every experiment binary with a committed capture must print exactly
# that capture, so a kernel change cannot move Fig. 9 or the ablations.
capture_now=$(mktemp /tmp/usystolic_capture.XXXXXX.txt)
for capture in results/exp_*.txt; do
    bin=$(basename "$capture" .txt)
    "./target/release/$bin" > "$capture_now"
    cmp -s "$capture_now" "$capture" || {
        echo "FAIL: $bin stdout differs from $capture" >&2
        exit 1
    }
done
rm -f "$capture_now"

echo "==> metrics exporter smoke test (prom + html)"
prom=$(mktemp /tmp/usystolic_metrics.XXXXXX.prom)
html=$(mktemp /tmp/usystolic_report.XXXXXX.html)
./target/release/sim_cli \
    --scheme UR --cycles 128 --shape edge --no-sram \
    --conv 31,31,96,5,5,1,256 \
    --metrics "$prom" --metrics-format prom --report "$html" --json > /dev/null
grep -q '# TYPE sim_dram_bytes counter' "$prom"
grep -q '<table' "$html"
if ./target/release/sim_cli --matmul 4,4,4 --metrics-format bogus \
    > /dev/null 2>&1; then
    echo "FAIL: --metrics-format bogus should exit 2" >&2
    exit 1
fi
rm -f "$prom" "$html"

echo "==> sim_cli --instances scaling smoke test"
./target/release/sim_cli --scheme UR --cycles 128 --no-sram \
    --conv 31,31,96,5,5,1,256 --instances 16 --json \
    | grep -q '"scaling_efficiency"'

echo "==> serve_cli smoke test (overload, JSON, determinism)"
serve=./target/release/serve_cli
a=$(mktemp /tmp/usystolic_serve.XXXXXX.json)
b=$(mktemp /tmp/usystolic_serve.XXXXXX.json)
# Overloaded open loop: must exit 0, emit well-formed JSON with latency
# percentiles, per-stage metrics and non-zero rejections.
"$serve" --seed 7 --workers 4 --instances 4 --arrival-rate 2000000 \
    --duration 0.002 --queue-depth 16 --deadline 1.0 --json > "$a"
grep -q '"p99_cycles"' "$a"
grep -q '"serve.queue_wait_ms"' "$a"
grep -q '"rejected":0' "$a" && {
    echo "FAIL: expected non-zero rejections under overload" >&2
    exit 1
}
# The same seed must reproduce bit for bit, also at another worker count
# (the echoed workers knob aside).
"$serve" --seed 7 --workers 1 --instances 4 --arrival-rate 2000000 \
    --duration 0.002 --queue-depth 16 --deadline 1.0 --json > "$b"
sed 's/"workers":[0-9]*//' "$a" > "$a.norm"
sed 's/"workers":[0-9]*//' "$b" > "$b.norm"
cmp -s "$a.norm" "$b.norm" || {
    echo "FAIL: serve_cli output differs across runs/worker counts" >&2
    exit 1
}
rm -f "$a" "$b" "$a.norm" "$b.norm"

echo "==> serve_cli flat-RSS smoke test (streaming fleet)"
# Four times the requests must not grow the peak RSS by more than 16 MB:
# the fleet keeps one arrival ahead and folds each request as it leaves.
# Each run gets its own python3 parent, so RUSAGE_CHILDREN sees only it.
peak_kb() {
    python3 -c '
import resource, subprocess, sys
subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL,
               stderr=subprocess.DEVNULL, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
' "$serve" --instances 64 --matmul 64,64,64 --network mnist \
        --fidelity analytic "$@"
}
short_kb=$(peak_kb --arrival-rate 2000 --queue-depth 100000000 --duration 125)
long_kb=$(peak_kb --arrival-rate 2000 --queue-depth 100000000 --duration 500)
echo "    peak RSS: $short_kb KB (~2.5e5 requests), $long_kb KB (~1e6 requests)"
test $((long_kb - short_kb)) -le 16384 || {
    echo "FAIL: peak RSS grew by more than 16 MB with 4x the requests" >&2
    exit 1
}
# Saturated traffic makes nearly every latency distinct, so this pair
# (both runs past the quantile histograms' 2^18-key cap) catches
# histograms that grow with the request count.
short_kb=$(peak_kb --arrival-rate 20000 --queue-depth 4096 --duration 30)
long_kb=$(peak_kb --arrival-rate 20000 --queue-depth 4096 --duration 120)
echo "    saturated peak RSS: $short_kb KB (~3.4e5 completions), $long_kb KB (~1.4e6 completions)"
test $((long_kb - short_kb)) -le 16384 || {
    echo "FAIL: saturated peak RSS grew by more than 16 MB with 4x the requests" >&2
    exit 1
}

echo "==> exp_faults smoke test (accuracy vs BER, graceful degradation)"
faults_json=$(mktemp /tmp/usystolic_faults.XXXXXX.json)
./target/release/exp_faults --short --out "$faults_json" > /dev/null
grep -q '"kernels_agree":true' "$faults_json"
grep -q '"deterministic":true' "$faults_json"
grep -q '"unary_graceful":true' "$faults_json"
rm -f "$faults_json"

echo "==> serve_cli fault-injection smoke test (seeded replay + conservation)"
fa=$(mktemp /tmp/usystolic_fault_serve.XXXXXX.json)
fb=$(mktemp /tmp/usystolic_fault_serve.XXXXXX.json)
# A seeded shard-kill scenario with retries, timeouts and brownout must
# reproduce bit for bit across worker counts (the echoed knob aside)...
"$serve" --matmul 64,64,64 --instances 2 --duration 0.01 \
    --arrival-rate 2000 --shard-fail 4,1 --retry-max 3 --retry-backoff 0.05 \
    --retry-jitter 250 --timeout 2 --brownout 500,600 --shed-expired \
    --fault-seed 11 --workers 4 --json > "$fa"
"$serve" --matmul 64,64,64 --instances 2 --duration 0.01 \
    --arrival-rate 2000 --shard-fail 4,1 --retry-max 3 --retry-backoff 0.05 \
    --retry-jitter 250 --timeout 2 --brownout 500,600 --shed-expired \
    --fault-seed 11 --workers 1 --json > "$fb"
sed 's/"workers":[0-9]*//' "$fa" > "$fa.norm"
sed 's/"workers":[0-9]*//' "$fb" > "$fb.norm"
cmp -s "$fa.norm" "$fb.norm" || {
    echo "FAIL: seeded fault scenario differs across worker counts" >&2
    exit 1
}
# ...must actually kill the shard and fail over...
grep -q '"shard_crashes":1' "$fa"
grep -q '"serve.failovers"' "$fa"
# ...and must lose nothing: every admitted request is accounted for.
grep -q '"lost":0' "$fa" || {
    echo "FAIL: shard-kill scenario lost requests" >&2
    exit 1
}
grep -q '"conserved":true' "$fa" || {
    echo "FAIL: request-conservation ledger does not balance" >&2
    exit 1
}
rm -f "$fa" "$fb" "$fa.norm" "$fb.norm"

echo "==> fidelity-tier smoke test (cycle vs packed vs analytic)"
fc=$(mktemp /tmp/usystolic_fid_cycle.XXXXXX.json)
fp=$(mktemp /tmp/usystolic_fid_packed.XXXXXX.json)
fn=$(mktemp /tmp/usystolic_fid_analytic.XXXXXX.json)
# The same seeded sim must be bit-identical at cycle and packed tier...
./target/release/sim_cli --scheme UR --cycles 128 --no-sram \
    --conv 31,31,96,5,5,1,256 --fidelity cycle --json > "$fc"
./target/release/sim_cli --scheme UR --cycles 128 --no-sram \
    --conv 31,31,96,5,5,1,256 --fidelity packed --json > "$fp"
cmp -s "$fc" "$fp" || {
    echo "FAIL: packed fidelity diverged from cycle-accurate sim" >&2
    exit 1
}
# ...and the same seeded serve scenario must run at both ends of the
# fidelity range, losing nothing at either tier.
"$serve" --seed 7 --instances 4 --arrival-rate 2000000 --duration 0.002 \
    --queue-depth 16 --deadline 1.0 --fidelity cycle --json > "$fc"
"$serve" --seed 7 --instances 4 --arrival-rate 2000000 --duration 0.002 \
    --queue-depth 16 --deadline 1.0 --fidelity analytic --json > "$fn"
grep -q '"lost":0' "$fc"
grep -q '"lost":0' "$fn"
# The analytic latency estimate must stay within 25% of the exact tier.
python3 -c '
import json, sys
exact = json.load(open(sys.argv[1]))["report"]["latency"]["p50_cycles"]
est = json.load(open(sys.argv[2]))["report"]["latency"]["p50_cycles"]
sys.exit(0 if abs(est - exact) / max(exact, 1) <= 0.25 else 1)
' "$fc" "$fn" || {
    echo "FAIL: analytic latency estimate drifted >25% from exact" >&2
    exit 1
}
rm -f "$fc" "$fp" "$fn"

echo "==> exp_des smoke test (fleet fidelity speedup + tolerance)"
des_json=$(mktemp /tmp/usystolic_des.XXXXXX.json)
./target/release/exp_des --short --out "$des_json" > /dev/null
grep -q '"packed_bit_identical":true' "$des_json"
grep -q '"estimates_within_tolerance":true' "$des_json"
grep -q '"speedup_target_met":true' "$des_json"
rm -f "$des_json"

echo "==> perfbench smoke test (the benchmark builds against this API)"
# perfbench is a cargo workspace of its own, so the builds and tests
# above never compile it. One short traced run per workload must exit 0
# and end on a JSON line that reports no failed operation.
for w in gemm_layers fleet_steady fleet_saturated fleet_faults; do
    out=$(CARGO_TARGET_DIR=target/perfbench python3 perfbench/run.py \
        --workload "$w" --seed 1 --seconds 1 --trace 1 --short) || {
        echo "FAIL: perfbench $w exited non-zero" >&2
        exit 1
    }
    printf '%s\n' "$out" | tail -n 1 | grep -q '"failed":0' || {
        echo "FAIL: perfbench $w reported failed operations" >&2
        exit 1
    }
done

echo "==> sim_cli device-fault smoke test"
# A faulted layer run must report kernel agreement in its JSON block...
./target/release/sim_cli --scheme UR --matmul 64,64,64 \
    --fault-ber 1e-3 --fault-stuck 2,3,1 --fault-seed 9 --json \
    | grep -q '"kernels_agree":true'

echo "==> bad-input and far-future exit codes"
# Malformed flags exit 2 with a diagnostic (never a 101 panic), an
# unsupported width under --check is an analyzer error (exit 1), and
# times that saturate the cycle counter finish instead of hanging.
while read -r want bin args; do
    rc=0
    # shellcheck disable=SC2086 # $args is a word list on purpose
    timeout 30 "./target/release/$bin" $args > /dev/null 2>&1 || rc=$?
    test "$rc" -eq "$want" || {
        echo "FAIL: $bin $args exited $rc, want $want" >&2
        exit 1
    }
done <<'CASES'
2 sim_cli --matmul 4,4,4 --fault-ber 1.5
2 sim_cli --matmul 4,4,4 --fault-stuck 2,3,7
2 sim_cli --matmul 4,4,4 --bits 0
2 sim_cli --matmul 4,4,4 --bits 1
2 sim_cli --matmul 4,4,4 --bits 40
1 sim_cli --check --bits 0
2 serve_cli --bits 0
2 serve_cli --bits 40
2 serve_cli --check --bits 0
2 serve_cli --closed-loop 0
2 serve_cli --deadline -1
2 serve_cli --deadline nan
2 serve_cli --think -1
2 serve_cli --think nan
0 serve_cli --timeout 1e300
0 serve_cli --shard-fail 1e300
0 serve_cli --retry-backoff 1e300 --retry-max 1 --shard-fail 1
CASES
# A deadline past the end of the cycle range is never missed.
timeout 30 "$serve" --deadline 1e300 --json | grep -q '"deadline_missed":0' || {
    echo "FAIL: --deadline 1e300 should miss no deadline" >&2
    exit 1
}

echo "verify: OK"
