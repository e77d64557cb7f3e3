#!/usr/bin/env bash
# Builds the project and runs both test tiers:
#   tier1 — fast unit/property tests (the default verify gate)
#   slow  — integration/pipeline tests that train real models
#
# First, tools/lint_env_reads.sh checks that every EMBA_* knob is read
# through the one reader (src/util/env.h).
#
# tier1 runs three times: once with the dispatched SIMD backend, once with
# EMBA_SIMD=off (so a divergence between the AVX2 and scalar kernel backends
# — see src/tensor/kernels.h, "scalar-exact contract" — fails the suite on
# any machine regardless of which backend dispatch would pick), and once
# with EMBA_INT8=on (so the quantized inference GEMM path — see
# src/tensor/int8.h — holds its tolerance contract everywhere, not just in
# the tests that opt into it). Arena-vs-heap bit equality is checked inside
# inference_test through ActivationArena::ForceDisabledForTest.
#
# The observability smoke (tools/obs_smoke.sh, the same script CI runs)
# follows the serve_bench smokes.
#
# Last, tier1 (serve battery included) runs once more from a second build
# tree, build-tsan/, compiled with GCC -fsanitize=thread; any data race
# report fails the suite (there are no suppressions).
#
# Usage: tools/run_tests.sh [extra ctest args...]
# Honors EMBA_NUM_THREADS for the thread-pool width under test.
set -euo pipefail
cd "$(dirname "$0")/.."

tools/lint_env_reads.sh

cmake -B build -S .
cmake --build build -j

cd build
echo "=== tier1 (fast unit tests, dispatched kernel backend) ==="
ctest -L tier1 --output-on-failure -j "$@"
echo "=== tier1 (fast unit tests, EMBA_SIMD=off) ==="
EMBA_SIMD=off ctest -L tier1 --output-on-failure -j "$@"
echo "=== tier1 (fast unit tests, EMBA_INT8=on) ==="
EMBA_INT8=on ctest -L tier1 --output-on-failure -j "$@"
echo "=== serve (serving/HTTP battery, standalone pass) ==="
ctest -L serve --output-on-failure -j "$@"
echo "=== serve_bench smoke (open-loop load, must sustain throughput) ==="
./bench/serve_bench --duration 5 --rps 200 --p99-ms 250
echo "=== serve_bench smoke (int8 quantized path) ==="
./bench/serve_bench --duration 5 --rps 200 --p99-ms 250 --int8
echo "=== observability smoke (rtrace, --train-events, /trainz) ==="
../tools/obs_smoke.sh
echo "=== slow (integration tests) ==="
ctest -L slow --output-on-failure -j "$@"

cd ..
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS=-fsanitize=thread -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread
cmake --build build-tsan -j
cd build-tsan
echo "=== tier1 under ThreadSanitizer (no suppressions) ==="
ctest -L tier1 --output-on-failure -j "$@"
