#!/usr/bin/env bash
# Observability smoke over a built tree: two batteries that drive real
# binaries and assert on the live surfaces a green test run would not see.
#
#   1. serve_bench with request tracing on. The bench dumps the live
#      /metrics and /rpcz surfaces to files; the greps fail if the e2e
#      histogram lost its exemplars or any per-stage histogram stopped
#      receiving observations.
#   2. A short real training run with the JSONL event log (--train-events)
#      and the live /trainz endpoint both on. Fails if any MTL head's loss
#      series comes back empty (telemetry silently dropped a task) or if a
#      numerics sentinel fired during a run that should be clean;
#      train_report must parse its own log.
#
# Artifacts land in <build>/obs-artifacts and <build>/train-obs-artifacts.
# Failures print GitHub Actions "::error::" annotations.
#
# Usage: tools/obs_smoke.sh   (expects a built tree in build/; uses port 18080)
set -eu
cd "$(dirname "$0")/../build"

echo "=== observability smoke: serve_bench --rtrace ==="
mkdir -p obs-artifacts
./bench/serve_bench --duration 5 --rps 200 --p99-ms 250 \
  --rtrace --access-log obs-artifacts/access.log \
  --dump-obs obs-artifacts
grep -q ' # {trace_id="' obs-artifacts/metrics.prom || {
  echo '::error::no exemplar on any histogram in /metrics'; exit 1; }
for stage in parse queue_wait batch_form compute serialize; do
  count=$(grep -E "^emba_serve_stage_${stage}_ms_count " \
    obs-artifacts/metrics.prom | awk '{print $2}')
  if [ -z "$count" ] || [ "$count" -eq 0 ]; then
    echo "::error::stage histogram serve.stage.${stage}_ms is empty"
    exit 1
  fi
done
head -n 3 obs-artifacts/access.log

echo "=== observability smoke: --train-events + /trainz ==="
mkdir -p train-obs-artifacts
./tools/emba_cli generate wdc_computers_small train-obs-artifacts/ci
EMBA_OBS_PORT=18080 ./tools/emba_cli train train-obs-artifacts/ci \
  emba train-obs-artifacts/ci_model.bin \
  --train-events train-obs-artifacts/events.jsonl --max-epochs 2 &
train_pid=$!
trainz=""
for _ in $(seq 1 120); do
  trainz=$(curl -sf "http://127.0.0.1:18080/trainz" || true)
  if echo "$trainz" | grep -q '"loss_id1": \[[0-9]'; then break; fi
  sleep 0.5
done
printf '%s\n' "$trainz" > train-obs-artifacts/trainz.json
wait "$train_pid"
for task in em id1 id2; do
  echo "$trainz" | grep -q "\"loss_${task}\": \[[0-9]" || {
    echo "::error::/trainz loss_${task} series is empty"; exit 1; }
  grep '"type": "step"' train-obs-artifacts/events.jsonl \
    | head -1 | grep -q "\"${task}\":" || {
    echo "::error::event log step records lack the ${task} head"
    exit 1; }
done
grep '"type": "run_end"' train-obs-artifacts/events.jsonl \
  | grep -q '"nonfinite_losses": 0, "nonfinite_grads": 0' || {
  echo '::error::numerics sentinel fired during a clean CI run'
  exit 1; }
./tools/train_report train-obs-artifacts/events.jsonl
