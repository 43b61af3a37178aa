#!/bin/sh
# verify.sh — the repo's full verification gate.
#
# Runs a gofmt check over the tracked Go files, vet, a full build, the
# complete test suite, the matrix and exec tests again built for 386 (no
# vector kernel there, so they run the portable Go kernel end to end)
# and a vet of the matrix package built for arm64 (its non-amd64 file),
# vet and tests of the benchmark module (bench/,
# a module of its own that the root build never compiles), the race
# detector over the run kernel and
# the packages with real concurrency (the push engine's pooled scratch
# state, the partition grids cached plans share between readers, the
# census worker pool, the journal writer, the throttle limiter, the
# planning service with its client, and the chaos proxy), a
# kill/resume smoke test (a journaled census is SIGKILLed mid-flight and
# resumed, and its output must be byte-identical to an uninterrupted
# run), a pland drain smoke test (degraded serving under an injected
# straggler fault, full-quality serving without it — with a /metrics
# scrape verified after the healthy workload — clean SIGTERM drain,
# and a non-zero exit when the drain window is forced shut), a chaos
# smoke test (three real pland replicas behind fault-injection proxies:
# a partition plus a straggler must not cost availability, and in-flight
# response corruption must never get a plan accepted), and an atlas
# serving smoke test (shapeopt bakes a coarse shape atlas, its dump
# spot-check re-derives cells against the live search, and a pland
# serving from it answers an all-on-lattice loadgen burst with zero
# errors while /metrics proves the search engine never ran), a
# self-tuning drift smoke test (live calibration under an injected 8x
# straggler must re-plan, change the served shape, and never serve the
# invalidated pre-drift plan again), a monotone degradation ramp
# (an open-loop overload sweep to ~3x capacity must walk the shed
# ladder one rung at a time with zero availability loss), and an
# exec-chaos smoke test (a worker killed mid-multiply recovers on the
# survivors via the twoproc re-plan, under SCB and under PIO, and a
# paced mmmsim run SIGKILLed
# mid-multiply resumes from its checkpoint — both bit-identical to the
# serial kij kernel), and an integrity smoke test (ABFT verification
# catches injected single-cell flips, under SCB and under SCO, and
# quarantines a deterministically
# corrupting worker as Byzantine, then the full silent-corruption study
# must detect every injection with every product bit-exact), a
# differential-equivalence step (the evaluator, on the legacy topologies
# and with fully-connected priced through the all-ones link spec, must
# reproduce the seed goldens byte-for-byte, every candidate price under
# the per-link topologies must reproduce its hex-float golden,
# the exec engine's virtual clocks must equal the model's bit for bit,
# a clean simulation must reproduce the model's times on every
# plan_search topology, and the Push engine must reproduce its
# run-equivalence golden and its K-processor golden), and
# a topology-census smoke (shapeopt -winner-map must show the 2+1 and
# 3-island link classes each moving at least one winner-map cell off the
# uniform baseline). CI and pre-commit hooks run
# exactly this script; it exits non-zero on the first failure — no step
# may be skipped.
set -eux

# Layout only. Tracked files only, so build output such as .bench_build/
# is never checked.
unformatted=$(git ls-files '*.go' | xargs gofmt -l)
[ -z "$unformatted" ] || { echo "gofmt -l lists: $unformatted" >&2; exit 1; }

go vet ./...
go build ./...
go test ./...
# The portable run kernel: 386 builds have no vector kernel, so these
# run the Go kernel through every executor (natively on x86-64 hosts);
# arm64 compiles the matrix package's non-amd64 file.
GOARCH=386 go test ./internal/matrix ./internal/exec
GOARCH=arm64 go vet ./internal/matrix
# bench/ replaces repro with this checkout and needs no downloads.
(cd bench && go vet ./... && go test ./...)
go test -race ./internal/matrix/... ./internal/push/... ./internal/partition/... \
    ./internal/experiment/... ./internal/journal/... ./internal/throttle/... \
    ./internal/serve/... ./internal/chaos/... ./serve/... \
    ./internal/calibrate/... ./internal/exec/... ./internal/sim/...

# --- chaos smoke test (~5s) -------------------------------------------
# The replicated-cluster invariants, under the race detector: with one
# of three replicas blackholed and another straggling, every request
# completes within its deadline and ≥80% at full quality; with one
# replica's responses corrupted in flight, zero corrupt plans are
# accepted (client-side VoC re-verification catches every one).
go test -race -count=1 -run 'TestChaosCluster' ./internal/chaos/

# --- kill/resume smoke test (~10s) ------------------------------------
tmp=$(mktemp -d)
# Whatever ends the script, a failed gate included, stop every background
# job it started (pland, loader, mmmsim, pushsearch) and remove $tmp.
# jobs -p runs in this shell, not in a command substitution, which in
# dash would see no jobs.
cleanup() {
    jobs -p > "$tmp/jobs"
    kill -TERM $(cat "$tmp/jobs") 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT
go build -o "$tmp/pushsearch" ./cmd/pushsearch

# Sized so the census takes ~2s: the kill below reliably lands mid-census.
flags="-n 120 -runs 300 -ratios 3:1:1 -seed 7 -workers 2"

# Uninterrupted baseline (no journal).
"$tmp/pushsearch" $flags > "$tmp/clean.out"

# Journaled run, SIGKILLed mid-census. The kill may land before, during,
# or after the census — every case must leave a resumable (or absent)
# journal behind.
"$tmp/pushsearch" $flags -journal "$tmp/census.jsonl" -resume \
    > "$tmp/killed.out" 2>&1 &
pid=$!
sleep 0.4
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true

# Resume (also creates the journal if the kill won the race) and compare:
# the resumed output must be byte-identical to the uninterrupted run.
"$tmp/pushsearch" $flags -journal "$tmp/census.jsonl" -resume \
    > "$tmp/resumed.out"
cmp "$tmp/clean.out" "$tmp/resumed.out"

# --- pland drain smoke test (~15s) ------------------------------------
# Three scenarios against the planning service:
#   1. injected straggler fault + short deadlines → every answer is the
#      canonical fallback marked Degraded, inside the deadline, and a
#      SIGTERM mid-burst drains clean (exit 0) with the cache flushed;
#   2. healthy server → the same workload comes back full quality;
#   3. a drain window too small for the in-flight request → exit non-zero.
go build -o "$tmp/pland" ./cmd/pland
go build -o "$tmp/loader" ./examples/planner_service

wait_addr() {
    for _ in $(seq 100); do
        [ -s "$1" ] && return 0
        sleep 0.1
    done
    echo "pland never wrote $1" >&2
    return 1
}

# Scenario 1: faulted server, degraded serving, clean drain.
"$tmp/pland" -addr 127.0.0.1:0 -addr-file "$tmp/a1" \
    -fault-straggler 1000 -fault-step 2ms \
    -max-concurrent 8 -max-queue 16 \
    -cache-journal "$tmp/plancache.jsonl" 2> "$tmp/pland1.log" &
p1=$!
wait_addr "$tmp/a1"
url1="http://$(cat "$tmp/a1")"
"$tmp/loader" -url "$url1" -requests 12 -conc 4 -timeout 500ms -expect degraded

"$tmp/loader" -url "$url1" -requests 30 -conc 4 -timeout 500ms \
    > /dev/null 2>&1 &
l1=$!
sleep 0.3
kill -TERM "$p1"
wait "$p1" || { echo "pland dirty drain" >&2; cat "$tmp/pland1.log" >&2; exit 1; }
wait "$l1" || true      # the burst's tail sees 503s once draining — expected
[ -s "$tmp/plancache.jsonl" ]
grep -q "drained clean" "$tmp/pland1.log"

# Scenario 2: healthy server, full-quality serving, clean drain when idle.
# -scrape-metrics additionally pulls the server's /metrics after the
# workload and asserts the Prometheus text parses and carries the
# serving families the burst must have populated (request counts,
# latency histogram, cache, breaker, push-search counters).
"$tmp/pland" -addr 127.0.0.1:0 -addr-file "$tmp/a2" \
    -max-concurrent 8 -max-queue 16 2> "$tmp/pland2.log" &
p2=$!
wait_addr "$tmp/a2"
"$tmp/loader" -url "http://$(cat "$tmp/a2")" -requests 6 -conc 2 \
    -timeout 5s -expect searched -scrape-metrics
kill -TERM "$p2"
wait "$p2" || { echo "idle pland dirty drain" >&2; cat "$tmp/pland2.log" >&2; exit 1; }

# Scenario 3: forced shutdown must be an honest failure, not a hang or a
# fake success.
"$tmp/pland" -addr 127.0.0.1:0 -addr-file "$tmp/a3" \
    -fault-straggler 1000 -fault-step 2ms -drain-timeout 200ms \
    2> "$tmp/pland3.log" &
p3=$!
wait_addr "$tmp/a3"
"$tmp/loader" -url "http://$(cat "$tmp/a3")" -requests 1 -conc 1 -timeout 5s \
    > /dev/null 2>&1 &
l3=$!
sleep 0.4
kill -TERM "$p3"
if wait "$p3"; then
    echo "pland exited 0 despite a forced drain" >&2
    exit 1
fi
wait "$l3" || true

# --- differential equivalence suite (~10s) -----------------------------
# The evaluator's contract, run explicitly and uncached: Evaluate
# breakdowns, closed forms and plan JSON must be byte-identical to the
# seed goldens both on the legacy topologies and with every
# fully-connected row priced through the all-ones link spec
# (links:PR=1,PS=1,RS=1), every candidate's VoC, model and sim Total
# under 2+1:10, 3-island:10 and a directed links: spec must match the
# link-pricing golden bit for bit, the exec engine's virtual clocks must
# equal model.EvaluateGrid bit for bit for all five algorithms on
# fully-connected, star and 3-island:10, a clean sim.Simulate must match model.Evaluate
# on fully-connected, star, 2+1:10 and 3-island:10 (PCB/PCO bit for bit,
# also at α > 0; SCB/SCO within relative 1e-15; PIO between
# N/(N+1)·Total and Total). The Push engine's own contract: every
# seeded search in the run-equivalence table (sizes straddling 64-bit
# words, both start families, Beautify, step caps, the relaxed types in
# both orders, supplied starts, pooled scratch grids) keeps
# its steps, VoCs, final cells, archetype and search counters, and on
# grids of 2, 4 and 5 processors seeded Attempts and condensations keep
# the commits, moves, volumes and final cells of the K-processor golden.
go test -count=1 -run 'TestSeedEquivalence|TestPlanSeedEquivalence' . ./internal/model/
go test -count=1 -run 'TestLinkPricingGolden' ./internal/experiment/
go test -count=1 -run 'TestMultiplyVirtualTimesMatchModel' ./internal/exec/
go test -count=1 -run 'TestSimulateMatchesModel' ./internal/sim/
go test -count=1 -run 'TestRunEquivalenceGolden|TestKProcEquivalenceGolden' ./internal/push/

# --- topology census smoke (~3s) ---------------------------------------
# The per-link cost model must be live end to end: each non-uniform
# topology class has to move at least one winner-map cell off the
# uniform baseline (a flat rescale provably cannot — see
# model.TopologySpec).
go build -o "$tmp/shapeopt" ./cmd/shapeopt
"$tmp/shapeopt" -winner-map -alg SCB -rr-max 4 -pr-max 12 -step 1 -n 60 > "$tmp/census.out"
grep -q "winner map: SCB, 3-island topology" "$tmp/census.out"
grep -Eq "class 2\+1: [1-9][0-9]* cells change winner" "$tmp/census.out"
grep -Eq "class 3-island: [1-9][0-9]* cells change winner" "$tmp/census.out"

# --- atlas serving smoke test (~10s) -----------------------------------
# The O(1) answer tier end to end: shapeopt bakes a coarse atlas and its
# dump spot-check re-derives cells against the live search (exit 2 on any
# divergence); pland refuses nothing at startup verification, warms every
# cell, and serves a pure on-lattice burst — loadgen fails the run unless
# every request succeeds, pland_atlas_hits_total grew, and
# pland_searched_total / push_runs_total stayed flat (the search engine
# never ran).
go build -o "$tmp/loadgen" ./cmd/loadgen

"$tmp/shapeopt" -build-atlas "$tmp/atlas.bin" -scale 2 -pr-max 4 -rr-max 3 -n 40
"$tmp/shapeopt" -dump-atlas "$tmp/atlas.bin" -spot 25 > "$tmp/atlas_dump.out"
grep -q "bit-identical to live search" "$tmp/atlas_dump.out"

"$tmp/pland" -addr 127.0.0.1:0 -addr-file "$tmp/a4" \
    -atlas "$tmp/atlas.bin" -atlas-verify 4 \
    -max-concurrent 8 -max-queue 16 2> "$tmp/pland4.log" &
p4=$!
wait_addr "$tmp/a4"
"$tmp/loadgen" -url "http://$(cat "$tmp/a4")" \
    -rate 50 -duration 3s -mix atlas=1 \
    -n 40 -scale 2 -pr-max 4 -rr-max 3 \
    -fail-on-error -metrics-check
kill -TERM "$p4"
wait "$p4" || { echo "atlas pland dirty drain" >&2; cat "$tmp/pland4.log" >&2; exit 1; }

# --- self-tuning drift smoke test (~12s) -------------------------------
# Live calibration end to end: pland boots with the calibrator on, a
# ratio:auto request resolves against the measured (uniform) baseline,
# then an injected 8x straggler drifts the estimate — the calibrator
# must publish the shift, invalidate and re-plan the tracked scenario
# (pland_replans_total), and every post-drift answer must carry the new
# ratio; the optimal shape itself must change. The old plan is never
# served again after invalidation.
"$tmp/pland" -addr 127.0.0.1:0 -addr-file "$tmp/a5" \
    -calibrate -calibrate-interval 200ms -calibrate-bench-n 48 \
    -calibrate-quantum 0.5 \
    -calibrate-straggler 8 -calibrate-straggler-after 3s \
    2> "$tmp/pland5.log" &
p5=$!
wait_addr "$tmp/a5"
url5="http://$(cat "$tmp/a5")"

base=$(curl -sf "$url5/v1/plan?n=64&ratio=auto&algorithm=SCB")
echo "$base" | grep -q '"ratio":"1:1:1"' \
    || { echo "baseline auto ratio is not uniform: $base" >&2; exit 1; }
shape_before=$(echo "$base" | sed -n 's/.*"shape":"\([^"]*\)".*/\1/p')
[ -n "$shape_before" ]

# Wait for the drift to register and the plan to change shape (the EWMA
# converges over a few rounds; first publish may be partial).
shape_after="$shape_before"
for i in $(seq 1 150); do
    resp=$(curl -sf "$url5/v1/plan?n=64&ratio=auto&algorithm=SCB")
    shape_after=$(echo "$resp" | sed -n 's/.*"shape":"\([^"]*\)".*/\1/p')
    if [ "$shape_after" != "$shape_before" ]; then break; fi
    sleep 0.2
done
[ "$shape_after" != "$shape_before" ] \
    || { echo "plan shape never changed after drift" >&2; cat "$tmp/pland5.log" >&2; exit 1; }

curl -sf "$url5/metrics" | grep -q '^pland_replans_total [1-9]' \
    || { echo "no re-plan after drift" >&2; exit 1; }
curl -sf "$url5/metrics" | grep -q '^pland_calibration_drift_events_total [1-9]' \
    || { echo "no drift event recorded" >&2; exit 1; }

# The invalidated baseline plan must be structurally unreachable.
for i in 1 2 3 4 5; do
    if curl -sf "$url5/v1/plan?n=64&ratio=auto&algorithm=SCB" \
        | grep -q '"ratio":"1:1:1"'; then
        echo "stale pre-drift plan served after invalidation" >&2
        exit 1
    fi
done

kill -TERM "$p5"
wait "$p5" || { echo "calibrating pland dirty drain" >&2; cat "$tmp/pland5.log" >&2; exit 1; }

# --- monotone degradation ramp smoke test (~12s) -----------------------
# Overload the planner with an open-loop ramp to ~3x search capacity
# (4 slots x ~100ms searches ~= 40/s). The shed ladder must walk its
# rungs one at a time (loadgen exits non-zero on any skipped rung), the
# tier mix must shift smoothly toward degraded answers, and gate
# saturation must fall back to the closed form instead of refusing
# work — zero availability loss at 3x on an idle machine.
"$tmp/pland" -addr 127.0.0.1:0 -addr-file "$tmp/a6" \
    -fault-straggler 10 -fault-step 100us \
    -max-concurrent 4 -max-queue 96 \
    -shed-target-latency 400ms -shed-interval 50ms \
    2> "$tmp/pland6.log" &
p6=$!
wait_addr "$tmp/a6"
"$tmp/loadgen" -url "http://$(cat "$tmp/a6")" \
    -ramp 10:120:5 -step-duration 2s -mix search=1 -search-pool 4000 \
    -n 40 -scale 10 -pr-max 20 -rr-max 20 \
    -out "$tmp/degrade.json" \
    || { echo "degradation ramp failed (skipped rung or errors)" >&2; cat "$tmp/pland6.log" >&2; exit 1; }
grep -q '"no_rung_skipped": true' "$tmp/degrade.json"
# Availability: on an otherwise-idle machine every step reads exactly
# 1.0 (that run is committed as BENCH_degrade.json). A loaded CI box
# can halve search capacity, turning the last steps into a ~6x
# overload where the ladder legitimately rides to its reject rung —
# so the gate is strict 1.0 while under capacity (steps 1-3) and a
# 0.85 floor beyond, which still fails on any fallback regression
# (a broken saturation fallback drops step 2-3 availability first).
i=0
for a in $(grep '"availability":' "$tmp/degrade.json" \
    | sed 's/.*"availability": *//; s/,.*//'); do
    i=$((i+1))
    awk -v a="$a" -v i="$i" 'BEGIN {
        if (i <= 3 && a+0 != 1) exit 1
        if (a+0 < 0.85) exit 1
    }' || { echo "availability $a at ramp step $i breaches the gate" >&2; cat "$tmp/degrade.json" >&2; exit 1; }
done
[ "$i" -eq 5 ]
# The ladder actually shed: the last step must not still be at full search.
if tail -n 40 "$tmp/degrade.json" | grep -q '"shed_tier_end": "search"'; then
    echo "ladder never left the search tier under 3x overload" >&2
    exit 1
fi
kill -TERM "$p6"
wait "$p6" || { echo "ramp pland dirty drain" >&2; cat "$tmp/pland6.log" >&2; exit 1; }

# --- exec-chaos smoke test (~5s) ---------------------------------------
# The fault-tolerant execution engine end to end, through the real CLI.
go build -o "$tmp/mmmsim" ./cmd/mmmsim

# 1. Worker R killed at 50% of its work: the run must finish on the two
#    survivors via the twoproc re-plan, bit-identical to the serial kij
#    kernel (mmmsim exits non-zero on MISMATCH).
"$tmp/mmmsim" -exec -alg SCB -n 64 -ratio 3:2:1 -block 8 \
    -fault kill:R@0.5 > "$tmp/exec_kill.out"
grep -q "replan-2proc" "$tmp/exec_kill.out"
grep -q "result MATCH" "$tmp/exec_kill.out"

#    The same kill under PIO, where every block waits at the delivery
#    gate for its pivot panels: the same engine must re-plan the same
#    way and still match.
"$tmp/mmmsim" -exec -alg PIO -n 64 -ratio 3:2:1 -block 8 \
    -fault kill:R@0.5 > "$tmp/exec_kill_pio.out"
grep -q "replan-2proc" "$tmp/exec_kill_pio.out"
grep -q "result MATCH" "$tmp/exec_kill_pio.out"

# 2. A paced, checkpointed run SIGKILLed mid-multiply must resume from
#    its journal: completed blocks replay, only the rest is recomputed,
#    and the product still matches the serial kernel. The kill may race
#    the run's start; the resume must cope with either a partial or an
#    absent checkpoint (it creates one when the kill won the race).
exec_flags="-exec -alg SCB -n 64 -ratio 3:2:1 -block 8 -seed 5"
"$tmp/mmmsim" $exec_flags -pace -pace-rate 20000 \
    -checkpoint "$tmp/exec.ckpt" > "$tmp/exec_killed.out" 2>&1 &
mpid=$!
sleep 1.2
kill -9 "$mpid" 2>/dev/null || true
wait "$mpid" 2>/dev/null || true
if [ -s "$tmp/exec.ckpt" ]; then
    "$tmp/mmmsim" $exec_flags -checkpoint "$tmp/exec.ckpt" -resume \
        > "$tmp/exec_resumed.out"
    grep -q "resumed [0-9]* blocks from checkpoint" "$tmp/exec_resumed.out"
else
    "$tmp/mmmsim" $exec_flags -checkpoint "$tmp/exec.ckpt" \
        > "$tmp/exec_resumed.out"
fi
grep -q "result MATCH" "$tmp/exec_resumed.out"

# --- integrity smoke test (~5s) ----------------------------------------
# ABFT verification end to end through the real CLI.

# 1. Single-cell exponent flips injected into R's results: the checksum
#    layer must see real corruption (injected ≥ 1) and the product must
#    still come out bit-identical to the serial kij kernel — a missed
#    flip would surface as MISMATCH and a non-zero exit.
"$tmp/mmmsim" -exec -alg SCB -n 64 -ratio 3:2:1 -block 16 \
    -verify -fault flip:R@0.9 > "$tmp/exec_flip.out"
grep -Eq "\(injected [1-9]" "$tmp/exec_flip.out"
grep -q "result MATCH" "$tmp/exec_flip.out"

#    The same flips under SCO: the bulk-overlap schedule runs on the
#    same engine, so ABFT checks its blocks like SCB's.
"$tmp/mmmsim" -exec -alg SCO -n 64 -ratio 3:2:1 -block 16 \
    -verify -fault flip:R@0.9 > "$tmp/exec_flip_sco.out"
grep -Eq "\(injected [1-9]" "$tmp/exec_flip_sco.out"
grep -q "result MATCH" "$tmp/exec_flip_sco.out"

# 2. A worker that deterministically scales every result by 8: it must
#    be quarantined as Byzantine once it burns its mismatch budget, the
#    run finishes on the survivors, and the product is still bit-exact.
#    Bands of 4 rows give S more blocks than its budget of 3.
"$tmp/mmmsim" -exec -alg SCB -n 64 -ratio 3:2:1 -block 4 \
    -verify -fault scale:S@8 > "$tmp/exec_scale.out"
grep -q "quarantined \[S\] as Byzantine" "$tmp/exec_scale.out"
grep -q "result MATCH" "$tmp/exec_scale.out"

# 3. The full silent-corruption study: flips at 10%/20%, the Byzantine
#    scaler and a combined drill under SCB and PCB — every injected
#    corruption detected, every product bit-exact (the study exits
#    non-zero otherwise), and the clean-run ABFT overhead under a
#    deliberately generous CI ceiling. The overhead is the median over 20
#    alternating Verify off/on pairs (BENCH_integrity.json records it
#    with its quartiles); the 25% ceiling only trips on a real
#    regression, never on a loaded CI box.
"$tmp/mmmsim" -integrity-study run -out "$tmp/bench_integrity.json" \
    -max-overhead 25 > "$tmp/integrity_study.out"
grep -q "every injected corruption detected" "$tmp/integrity_study.out"
[ -s "$tmp/bench_integrity.json" ]

echo "verify.sh: all checks passed"
