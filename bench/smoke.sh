#!/bin/sh
# Tier-1 smoke check: build, tests, formatting (when ocamlformat is
# available), and one tiny instrumented solve whose flight recording and
# JSON report are validated (strictly decreasing recorded incumbents,
# one run_id, a gap series whose lb never exceeds its ub).  Also exercises
# the live-observability surface, which is file-based: a
# --trace-spans/--heartbeat/--metrics portfolio solve whose artifacts are
# validated with `bsolo inspect --spans` / `--live --check` / `--follow`,
# a --metrics file linted while its solve still runs, and a
# single-engine --profile-hz run whose sampled profile must agree with
# the exact phase timers (`inspect --profile` exits 1 on disagreement).
# The flight recorder is exercised end to end: a --record run replayed
# deterministically with `bsolo replay --check`, its forensics node
# accounting reconciled, a --record-ring run killed with SIGTERM whose
# tail must still parse without a fin frame, and a stitched --portfolio
# recording.  The three --bcp propagation modes and the three --cuts
# modes must produce identical optima, and a hybrid recording must
# replay cleanly under all three --bcp modes.  Single-solve optima, work
# counters and proof checks are pinned exactly by the counter gate in
# test/counters.t, which `dune runtest` runs.
# Exits non-zero on the first failure.
#
# With --proof, a --portfolio --jobs 2 solve is additionally logged as
# one stitched proof and replayed through `bsolo checkproof`.
#
# When SMOKE_ARTIFACTS_DIR is set, the run's artifacts (span/heartbeat/
# metrics files, reports, proofs) are copied there on exit for CI upload.
set -eu

cd "$(dirname "$0")/.."

with_proof=0
for arg in "$@"; do
  case "$arg" in
    --proof) with_proof=1 ;;
    *) echo "usage: smoke.sh [--proof]"; exit 2 ;;
  esac
done

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== dune build @fmt =="
if command -v ocamlformat >/dev/null 2>&1; then
  dune build @fmt
else
  echo "ocamlformat not installed; skipping formatting check"
fi

echo "== instrumented solve =="
tmpdir=$(mktemp -d)
save_artifacts() {
  if [ -n "${SMOKE_ARTIFACTS_DIR:-}" ]; then
    mkdir -p "$SMOKE_ARTIFACTS_DIR"
    for f in "$tmpdir"/*.json "$tmpdir"/*.jsonl "$tmpdir"/*.prom "$tmpdir"/*.pbp \
             "$tmpdir"/*.check "$tmpdir"/*.rec; do
      [ -e "$f" ] && cp "$f" "$SMOKE_ARTIFACTS_DIR/" || true
    done
  fi
}
trap 'save_artifacts; rm -rf "$tmpdir"' EXIT
./_build/default/bin/bsolo_main.exe benchmarks/synth-s1.opb \
  --timeout 10 --stats \
  --record "$tmpdir/solve.rec" --json "$tmpdir/report.json" \
  >"$tmpdir/stdout.txt" 2>"$tmpdir/stderr.txt"

grep -q '^s OPTIMUM FOUND$' "$tmpdir/stdout.txt" || {
  echo "FAIL: expected 's OPTIMUM FOUND' on stdout"; cat "$tmpdir/stdout.txt"; exit 1;
}
grep -q '^c phase times' "$tmpdir/stderr.txt" || {
  echo "FAIL: --stats produced no phase table on stderr"; cat "$tmpdir/stderr.txt"; exit 1;
}

echo "== validate JSON report =="
grep -q '"schema":"bsolo-run-report/1"' "$tmpdir/report.json" || {
  echo "FAIL: report schema marker missing"; exit 1;
}
# Every gap sample pairs a globally valid lb with the incumbent: lb <= ub.
grep -o '"search\.gap":{[^}]*}' "$tmpdir/report.json" \
  | grep -o '\[[-0-9.e+]*,[-0-9.e+]*,[-0-9.e+]*\]' >"$tmpdir/gap.txt" || true
[ -s "$tmpdir/gap.txt" ] || { echo "FAIL: report has no search.gap samples"; exit 1; }
awk -F'[][,]' '
  $3 + 0 > $4 + 0 { print "FAIL: search.gap sample " NR " has lb > ub: " $0; bad = 1; exit 1 }
  END { if (!bad) print "gap: " NR " samples, lb <= ub in every one" }
' "$tmpdir/gap.txt"

echo "== validate flight recording =="
[ -s "$tmpdir/solve.rec" ] || { echo "FAIL: empty recording"; exit 1; }
./_build/default/bin/bsolo_main.exe inspect forensics "$tmpdir/solve.rec" \
  >"$tmpdir/solve-forensics.out" 2>&1 || {
  echo "FAIL: forensics failed on the recording"; cat "$tmpdir/solve-forensics.out"; exit 1;
}
awk '
  /^incumbent trajectory:/ { inc = 1; next }
  inc && /cost -?[0-9]+$/ {
    cost = $NF + 0
    if (n && cost >= prev) {
      print "FAIL: recorded incumbents not strictly decreasing: " prev " then " cost; bad = 1; exit 1
    }
    prev = cost; n++
  }
  END {
    if (bad) exit 1
    if (!n) { print "FAIL: no incumbents in the recording"; exit 1 }
    print "recording: " n " incumbents, strictly decreasing"
  }
' "$tmpdir/solve-forensics.out"
srid=$(sed -n 's/.*"run_id":"\([0-9a-f]*\)".*/\1/p' "$tmpdir/report.json" | head -1)
[ -n "$srid" ] || { echo "FAIL: report has no run_id"; exit 1; }
grep -q " run=$srid " "$tmpdir/solve-forensics.out" || {
  echo "FAIL: recording run_id != report run_id ($srid)"; head -3 "$tmpdir/solve-forensics.out"; exit 1;
}
echo "run_id $srid in report and recording"

echo "== parallel portfolio solve (--jobs 2) =="
# Hard timeout so a hung worker domain fails the check instead of
# wedging it; the instance solves in well under the budget.
timeout 120 ./_build/default/bin/bsolo_main.exe benchmarks/synth-s1.opb \
  --portfolio --jobs 2 --timeout 60 --stats \
  >"$tmpdir/pstdout.txt" 2>"$tmpdir/pstderr.txt" || {
  echo "FAIL: portfolio solve failed or hit the hard timeout";
  cat "$tmpdir/pstdout.txt" "$tmpdir/pstderr.txt"; exit 1;
}
grep -q '^s OPTIMUM FOUND$' "$tmpdir/pstdout.txt" || {
  echo "FAIL: portfolio did not prove the optimum"; cat "$tmpdir/pstdout.txt"; exit 1;
}
grep -q '^c portfolio: jobs=2' "$tmpdir/pstdout.txt" || {
  echo "FAIL: portfolio summary line missing"; cat "$tmpdir/pstdout.txt"; exit 1;
}
grep -q 'portfolio\.incumbent_broadcasts' "$tmpdir/pstderr.txt" || {
  echo "FAIL: portfolio.* counters missing from --stats"; cat "$tmpdir/pstderr.txt"; exit 1;
}

bsolo=./_build/default/bin/bsolo_main.exe

echo "== observability solve (spans + heartbeat + metrics, --jobs 2) =="
timeout 120 "$bsolo" benchmarks/synth-s2.opb \
  --portfolio --jobs 2 --timeout 60 \
  --trace-spans "$tmpdir/spans.json" \
  --heartbeat "$tmpdir/heartbeat.jsonl" --heartbeat-every 0.2 \
  --metrics "$tmpdir/metrics.prom" \
  --json "$tmpdir/obs-report.json" \
  >"$tmpdir/obs.out" 2>&1 || {
  echo "FAIL: observability solve failed"; cat "$tmpdir/obs.out"; exit 1;
}

echo "== validate span trace (inspect --spans) =="
"$bsolo" inspect --spans "$tmpdir/spans.json" || {
  echo "FAIL: span trace failed validation"; exit 1;
}

echo "== validate heartbeat (inspect --live --check) =="
"$bsolo" inspect --live "$tmpdir/heartbeat.jsonl" --check || {
  echo "FAIL: heartbeat failed validation"; exit 1;
}

echo "== run_id correlates report, spans and heartbeat =="
rid=$(sed -n 's/.*"run_id":"\([0-9a-f]*\)".*/\1/p' "$tmpdir/obs-report.json" | head -1)
[ -n "$rid" ] || { echo "FAIL: report has no run_id"; exit 1; }
grep -q "\"run_id\":\"$rid\"" "$tmpdir/spans.json" || {
  echo "FAIL: span header run_id != report run_id ($rid)"; exit 1;
}
grep -q "\"run_id\":\"$rid\"" "$tmpdir/heartbeat.jsonl" || {
  echo "FAIL: heartbeat header run_id != report run_id ($rid)"; exit 1;
}
echo "run_id $rid present in all three artifacts"

echo "== validate Prometheus metrics =="
[ -s "$tmpdir/metrics.prom" ] || { echo "FAIL: empty metrics file"; exit 1; }
grep -q '^# TYPE bsolo_' "$tmpdir/metrics.prom" || {
  echo "FAIL: no namespaced TYPE lines in metrics"; exit 1;
}

echo "== follow a heartbeat file (inspect --live --follow) =="
# On a finished file --follow renders every snapshot and stops at the
# end record; on a running solve it repaints as snapshots arrive.
timeout 30 "$bsolo" inspect --live "$tmpdir/heartbeat.jsonl" --follow >"$tmpdir/follow.out" 2>&1 || {
  echo "FAIL: --follow did not stop at the heartbeat end record"; cat "$tmpdir/follow.out"; exit 1;
}
grep -q "heartbeat: run $rid" "$tmpdir/follow.out" || {
  echo "FAIL: --follow rendered no status view"; cat "$tmpdir/follow.out"; exit 1;
}

echo "== live metrics file (--metrics without --heartbeat) =="
# The metrics file is rewritten on every heartbeat tick, also when no
# heartbeat file is written.  Every stock benchmark instance solves
# sub-second, so generate a harder knapsack that runs into its timeout,
# and check a copy of the file taken while the solve still runs.
./_build/default/bin/genpb.exe knap --scale 8 --seed 7 -o "$tmpdir/hard.opb" >/dev/null
timeout 60 "$bsolo" "$tmpdir/hard.opb" \
  --portfolio --jobs 2 --timeout 15 --metrics "$tmpdir/live-metrics.prom" \
  --heartbeat-every 0.2 >"$tmpdir/live.out" 2>&1 &
live_pid=$!
# Member series appear with the first tick after a member starts; poll
# for up to ~5 s.
for _ in $(seq 1 50); do
  if [ -s "$tmpdir/live-metrics.prom" ]; then
    cp "$tmpdir/live-metrics.prom" "$tmpdir/live-copy.prom"
    grep -q '^bsolo_portfolio_' "$tmpdir/live-copy.prom" && break
  fi
  sleep 0.1
done
kill -0 "$live_pid" 2>/dev/null || {
  echo "FAIL: the solve exited before its metrics file carried member series";
  cat "$tmpdir/live.out"; exit 1;
}
[ -s "$tmpdir/live-copy.prom" ] || {
  echo "FAIL: no metrics file while the solve runs"; kill "$live_pid"; exit 1;
}
"$bsolo" inspect --metrics "$tmpdir/live-copy.prom" || {
  echo "FAIL: live metrics file failed lint"; kill "$live_pid"; exit 1;
}
grep -q '^bsolo_portfolio_' "$tmpdir/live-copy.prom" || {
  echo "FAIL: live metrics file carries no portfolio member series"; kill "$live_pid"; exit 1;
}
# Exit 1 = UNKNOWN: expected, the hard instance is built to outlive its
# --timeout.  Anything else (crash, hard timeout kill) is a failure.
live_rc=0
wait "$live_pid" || live_rc=$?
case "$live_rc" in
  0|1) ;;
  *) echo "FAIL: live-metrics solve exited $live_rc"; cat "$tmpdir/live.out"; exit 1 ;;
esac
"$bsolo" inspect --metrics "$tmpdir/live-metrics.prom" >/dev/null || {
  echo "FAIL: final metrics file failed lint"; exit 1;
}

echo "== sampling profile agrees with exact timers (inspect --profile) =="
timeout 120 "$bsolo" benchmarks/synth-s2.opb \
  --lb lpr --timeout 60 --profile-hz 300 --stats \
  --json "$tmpdir/profile-report.json" \
  >"$tmpdir/prof.out" 2>&1 || {
  echo "FAIL: profiled solve failed"; cat "$tmpdir/prof.out"; exit 1;
}
"$bsolo" inspect --profile "$tmpdir/profile-report.json" || {
  echo "FAIL: sampled profile disagrees with exact phase timers"; exit 1;
}

echo "== flight recording (--record -> replay --check -> inspect forensics) =="
timeout 120 "$bsolo" benchmarks/synth-s2.opb \
  --lb lpr --timeout 60 --record "$tmpdir/flight.rec" \
  >"$tmpdir/rec.out" 2>&1 || {
  echo "FAIL: recorded solve failed"; cat "$tmpdir/rec.out"; exit 1;
}
grep -q '^c recording:' "$tmpdir/rec.out" || {
  echo "FAIL: recording summary line missing"; cat "$tmpdir/rec.out"; exit 1;
}
timeout 120 "$bsolo" replay benchmarks/synth-s2.opb "$tmpdir/flight.rec" --check \
  >"$tmpdir/replay.out" 2>&1 || {
  echo "FAIL: replay --check diverged from the recording"; cat "$tmpdir/replay.out"; exit 1;
}
grep -q '^s REPLAY OK' "$tmpdir/replay.out" || {
  echo "FAIL: no REPLAY OK verdict"; cat "$tmpdir/replay.out"; exit 1;
}
echo "replay: $(grep '^c replay:' "$tmpdir/replay.out")"
"$bsolo" inspect forensics "$tmpdir/flight.rec" >"$tmpdir/forensics.out" 2>&1 || {
  echo "FAIL: forensics failed on the recording"; cat "$tmpdir/forensics.out"; exit 1;
}
# The blame table must reconcile with the engine's own node counter.
grep -q 'matches recorded fin' "$tmpdir/forensics.out" || {
  echo "FAIL: forensics node accounting does not match the recorded fin";
  cat "$tmpdir/forensics.out"; exit 1;
}

echo "== ring recording leaves a parseable tail after SIGTERM =="
# The generated hard knapsack runs far past 1 s, so timeout really
# kills the solve (exit 124) and the recording has no fin frame.
ring_rc=0
timeout -s TERM 1 "$bsolo" "$tmpdir/hard.opb" \
  --lb lpr --record "$tmpdir/ring.rec" --record-ring 256 >/dev/null 2>&1 || ring_rc=$?
[ "$ring_rc" = 124 ] || {
  echo "FAIL: the ring solve was not killed by SIGTERM (exit $ring_rc, want 124)"; exit 1;
}
[ -s "$tmpdir/ring.rec" ] || { echo "FAIL: SIGTERM left no ring recording"; exit 1; }
"$bsolo" inspect forensics "$tmpdir/ring.rec" >"$tmpdir/ring-forensics.out" 2>&1 || {
  echo "FAIL: SIGTERM-killed ring recording did not parse";
  cat "$tmpdir/ring-forensics.out"; exit 1;
}
grep -q 'no fin frame: run killed before the summary' "$tmpdir/ring-forensics.out" || {
  echo "FAIL: the killed ring recording should have no fin frame";
  cat "$tmpdir/ring-forensics.out"; exit 1;
}
echo "ring tail: $(sed -n '4p' "$tmpdir/ring-forensics.out")"

echo "== BCP modes agree (watched / counting / hybrid) =="
# All three propagation modes must find the same optimum, and a run
# recorded under one mode must replay byte-identically under the other
# two — the lagged-slack discipline makes the event stream mode-invariant.
for mode in watched counting hybrid; do
  timeout 120 "$bsolo" benchmarks/synth-s1.opb --timeout 60 --bcp "$mode" \
    >"$tmpdir/bcp-$mode.out" 2>&1 || {
    echo "FAIL: --bcp $mode solve failed"; cat "$tmpdir/bcp-$mode.out"; exit 1;
  }
  grep -E '^[so] ' "$tmpdir/bcp-$mode.out" >"$tmpdir/bcp-$mode.opt"
done
for mode in counting hybrid; do
  cmp -s "$tmpdir/bcp-watched.opt" "$tmpdir/bcp-$mode.opt" || {
    echo "FAIL: --bcp $mode optimum differs from watched";
    diff "$tmpdir/bcp-watched.opt" "$tmpdir/bcp-$mode.opt" || true; exit 1;
  }
done
timeout 120 "$bsolo" benchmarks/synth-s2.opb --timeout 60 --bcp hybrid \
  --record "$tmpdir/bcp.rec" >/dev/null 2>&1 || {
  echo "FAIL: recorded --bcp hybrid solve failed"; exit 1;
}
for mode in watched counting hybrid; do
  timeout 120 "$bsolo" replay benchmarks/synth-s2.opb "$tmpdir/bcp.rec" \
    --check --bcp "$mode" >"$tmpdir/bcp-replay-$mode.out" 2>&1 || {
    echo "FAIL: replay --check --bcp $mode diverged from the hybrid recording";
    cat "$tmpdir/bcp-replay-$mode.out"; exit 1;
  }
  grep -q '^s REPLAY OK' "$tmpdir/bcp-replay-$mode.out" || {
    echo "FAIL: no REPLAY OK verdict under --bcp $mode"; exit 1;
  }
done
echo "bcp modes: identical optima, cross-mode replay OK"

echo "== portfolio recording stitches member sections =="
timeout 120 "$bsolo" benchmarks/synth-s1.opb \
  --portfolio --jobs 2 --timeout 60 --record "$tmpdir/portfolio.rec" \
  >"$tmpdir/prec.out" 2>&1 || {
  echo "FAIL: recorded portfolio solve failed"; cat "$tmpdir/prec.out"; exit 1;
}
"$bsolo" inspect forensics "$tmpdir/portfolio.rec" >"$tmpdir/pforensics.out" 2>&1 || {
  echo "FAIL: forensics failed on the stitched recording"; cat "$tmpdir/pforensics.out"; exit 1;
}
grep -q '^member ' "$tmpdir/pforensics.out" || {
  echo "FAIL: stitched recording has no member sections"; cat "$tmpdir/pforensics.out"; exit 1;
}

echo "== cut separation modes agree (--cuts=off / root / tree) =="
# Cuts shape the bound, never the answer: all three modes (and a
# presolve-disabled run) must print identical s/o lines on the
# general-coefficient knapsack instance where cuts actually fire.
for mode in off root tree; do
  timeout 120 "$bsolo" benchmarks/knap-s1.opb --timeout 60 --cuts "$mode" \
    >"$tmpdir/cuts-$mode.out" 2>&1 || {
    echo "FAIL: --cuts $mode solve failed"; cat "$tmpdir/cuts-$mode.out"; exit 1;
  }
  grep -E '^[so] ' "$tmpdir/cuts-$mode.out" >"$tmpdir/cuts-$mode.opt"
done
for mode in root tree; do
  cmp -s "$tmpdir/cuts-off.opt" "$tmpdir/cuts-$mode.opt" || {
    echo "FAIL: --cuts $mode optimum differs from --cuts off";
    diff "$tmpdir/cuts-off.opt" "$tmpdir/cuts-$mode.opt" || true; exit 1;
  }
done
timeout 120 "$bsolo" benchmarks/knap-s1.opb --timeout 60 --no-presolve \
  >"$tmpdir/cuts-nopre.out" 2>&1 || {
  echo "FAIL: --no-presolve solve failed"; cat "$tmpdir/cuts-nopre.out"; exit 1;
}
grep -E '^[so] ' "$tmpdir/cuts-nopre.out" >"$tmpdir/cuts-nopre.opt"
cmp -s "$tmpdir/cuts-off.opt" "$tmpdir/cuts-nopre.opt" || {
  echo "FAIL: --no-presolve optimum differs";
  diff "$tmpdir/cuts-off.opt" "$tmpdir/cuts-nopre.opt" || true; exit 1;
}
# The instrumented run must actually separate something, and the cut
# pool must surface in the inspect report.
timeout 120 "$bsolo" benchmarks/knap-s2.opb --timeout 60 --cuts tree --stats \
  --json "$tmpdir/cuts-report.json" >"$tmpdir/cuts-stats.out" 2>&1 || {
  echo "FAIL: --cuts tree --stats solve failed"; cat "$tmpdir/cuts-stats.out"; exit 1;
}
grep -Eq 'cuts\.(cover|clique|implied)\.separated' "$tmpdir/cuts-stats.out" || {
  echo "FAIL: cuts.* counters missing from --stats"; cat "$tmpdir/cuts-stats.out"; exit 1;
}
"$bsolo" inspect "$tmpdir/cuts-report.json" >"$tmpdir/cuts-inspect.out" 2>&1 || {
  echo "FAIL: inspect failed on the cuts report"; cat "$tmpdir/cuts-inspect.out"; exit 1;
}
grep -q 'cut pool and presolve:' "$tmpdir/cuts-inspect.out" || {
  echo "FAIL: inspect report has no cut-pool table"; cat "$tmpdir/cuts-inspect.out"; exit 1;
}
echo "cut modes: identical optima, counters and pool table present"

if [ "$with_proof" = 1 ]; then
  echo "== proof-checked parallel portfolio (--jobs 2) =="
  timeout 120 "$bsolo" benchmarks/synth-s1.opb \
    --portfolio --jobs 2 --timeout 60 --proof "$tmpdir/portfolio.pbp" \
    >"$tmpdir/pproof.out" 2>&1 || {
    echo "FAIL: proof-logged portfolio solve failed"; cat "$tmpdir/pproof.out"; exit 1;
  }
  "$bsolo" checkproof benchmarks/synth-s1.opb "$tmpdir/portfolio.pbp" \
    >"$tmpdir/pproof.check" 2>&1 || {
    echo "FAIL: checkproof rejected the stitched portfolio proof";
    cat "$tmpdir/pproof.check"; exit 1;
  }
  grep -q '^s VERIFIED' "$tmpdir/pproof.check" || {
    echo "FAIL: no VERIFIED verdict for the portfolio proof"; cat "$tmpdir/pproof.check"; exit 1;
  }
  echo "portfolio: $(grep '^s VERIFIED' "$tmpdir/pproof.check")"
fi

echo "smoke: OK"
