#!/usr/bin/env bash
# The repo check matrix: builds and tests under each sanitizer, runs the
# invariant linter, and (when installed) clang-tidy. This is the pre-PR
# gate — run it from the repo root:
#
#   scripts/check.sh              # full matrix: plain, vec, asan, ubsan,
#                                 # tsan, equiv, sparse, service, chaos,
#                                 # bench, gc_lint, gc_analyze, clang-tidy
#                                 # (if available)
#   scripts/check.sh plain lint   # just those stages
#   JOBS=8 scripts/check.sh       # override build parallelism
#
# Each stage gets its own build tree under build-check/ so sanitizer
# flags never mix. Exits nonzero if any stage fails; prints a summary
# table either way.
set -u

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
STAGES=("$@")
if [ ${#STAGES[@]} -eq 0 ]; then
  STAGES=(plain vec asan ubsan tsan equiv sparse service chaos bench lint analyze tidy)
fi

declare -A RESULT
FAILED=0

note() { printf '\n=== check.sh: %s ===\n' "$*"; }

# build_and_test NAME CMAKE_ARGS... -- CTEST_ARGS...
build_and_test() {
  local name="$1"; shift
  local cmake_args=() ctest_args=()
  local in_ctest=0
  for a in "$@"; do
    if [ "$a" = "--" ]; then in_ctest=1; continue; fi
    if [ $in_ctest -eq 1 ]; then ctest_args+=("$a"); else cmake_args+=("$a"); fi
  done
  local bdir="build-check/$name"
  note "$name: configure + build"
  if ! cmake -B "$bdir" -S . "${cmake_args[@]}" > "$bdir.cfg.log" 2>&1; then
    RESULT[$name]="FAIL (configure, see $bdir.cfg.log)"; FAILED=1; return
  fi
  if ! cmake --build "$bdir" -j "$JOBS" > "$bdir.build.log" 2>&1; then
    RESULT[$name]="FAIL (build, see $bdir.build.log)"; FAILED=1; return
  fi
  note "$name: ctest ${ctest_args[*]}"
  if (cd "$bdir" && ctest --output-on-failure "${ctest_args[@]}"); then
    RESULT[$name]="ok"
  else
    RESULT[$name]="FAIL (ctest)"; FAILED=1
  fi
}

mkdir -p build-check

for stage in "${STAGES[@]}"; do
  case "$stage" in
    plain)
      build_and_test plain -- ;;
    vec)
      # The BGK lane operator's moment and relaxation loops must stay
      # vectorized under the plain build's flags (no -march, no
      # -ffast-math): compile collision.cpp with GCC's vectorizer report
      # and require a "loop vectorized" line for each loop the source
      # marks with a "// vec: <name>" comment.
      note "vec: BGK lane loops stay vectorized"
      bdir=build-check/vec
      src=src/lbm/collision.cpp
      rm -f "$bdir/src/CMakeFiles/gc_lbm.dir/lbm/collision.cpp.o"
      if cmake -B "$bdir" -S . -DCMAKE_CXX_FLAGS=-fopt-info-vec-optimized \
              > "$bdir.cfg.log" 2>&1 \
          && make -C "$bdir/src" lbm/collision.cpp.o > "$bdir.build.log" 2>&1; then
        RESULT[vec]="ok"
        for loop in moments relax; do
          line=$(grep -n "// vec: $loop\$" "$src" | cut -d: -f1)
          if [ -z "$line" ] || ! grep -q \
              "collision.cpp:$line:[0-9]*: optimized: loop vectorized" \
              "$bdir.build.log"; then
            echo "vec: the $loop loop ($src:${line:-?}) is not vectorized" >&2
            RESULT[vec]="FAIL ($loop loop, see $bdir.build.log)"; FAILED=1
          fi
        done
        grep "collision.cpp:.*loop vectorized" "$bdir.build.log" | sort | uniq -c
      else
        RESULT[vec]="FAIL (build, see $bdir.build.log)"; FAILED=1
      fi ;;
    asan)
      build_and_test asan -DGC_SANITIZE=address -- -L asan ;;
    ubsan)
      # halt_on_error makes UBSan failures fail the test run instead of
      # only printing runtime warnings.
      UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
        build_and_test ubsan -DGC_SANITIZE=undefined -- -L ubsan ;;
    tsan)
      build_and_test tsan -DGC_SANITIZE=thread -- -L tsan ;;
    equiv)
      # The randomized overlap/serial equivalence harness, which sweeps
      # ALL lattice storage modes (double-buffered, in-place AA and the
      # sparse fluid-index layout) per seeded config, the dedicated AA
      # storage suite, and both distributed drivers (host lattices and
      # simulated GPUs) against the serial reference and each other — one
      # border-exchange pipeline runs under both — plus the stream region
      # pass and the fused step built on it, each storage mode against the
      # pull rule itself (StreamRegion, CollisionTiles, CellClass), the
      # bulk/slow classification against its brute-force rule, and the one
      # pull rule the host and the simulated GPU share (FaceBcSweep,
      # PeriodicDomainBitExact, BitExactVsHostReference). Bit-exactness
      # across storage modes and drivers is a merge gate.
      note "equiv: equivalence harness across storage modes and drivers"
      bdir=build-check/equiv
      if cmake -B "$bdir" -S . > "$bdir.cfg.log" 2>&1 \
          && cmake --build "$bdir" -j "$JOBS" --target gc_tests \
              > "$bdir.build.log" 2>&1 \
          && "$bdir/tests/gc_tests" \
              --gtest_filter='OverlapExec.*:*/OverlapExec.*:StorageAA.*:SparseLattice.KernelsMatchDenseReference:Parallel.*:*/ParallelVsSerial.*:GpuCluster.*:*/GpuClusterVsSerial.*:StreamRegion.*:CollisionTiles.*:CellClass.FusedPooledBitExactVsSerialSplit:CellClass.MatchesBruteForceUnderEveryFaceBc:AxisFaces/FaceBcSweep.*:GpuSolver.PeriodicDomainBitExact:GpuSolver.BitExactVsHostReference'; then
        RESULT[equiv]="ok"
      else
        RESULT[equiv]="FAIL"; FAILED=1
      fi ;;
    sparse)
      # The sparse fluid-index backend: compact layout invariants, sparse
      # kernel equivalence, sparse checkpoint round trips, the fluid-
      # balanced partitioner property suite, and the sparse bench smoke
      # (the sparse microbench and the dense-vs-sparse urban cases).
      note "sparse: sparse storage + fluid-balanced partition suite"
      bdir=build-check/sparse
      if cmake -B "$bdir" -S . > "$bdir.cfg.log" 2>&1 \
          && cmake --build "$bdir" -j "$JOBS" --target gc_tests bench_kernels \
              > "$bdir.build.log" 2>&1 \
          && "$bdir/tests/gc_tests" \
              --gtest_filter='SparseLattice.*:SparseCheckpoint.*:FluidPartition.*:*/FluidPartition.*' \
          && "$bdir/bench/bench_kernels" --benchmark_filter='Sparse|Urban' \
              --benchmark_min_time=0.01; then
        RESULT[sparse]="ok"
      else
        RESULT[sparse]="FAIL"; FAILED=1
      fi ;;
    service)
      # The scenario-service suite (flow cache, partition leasing,
      # bounded queue) plus an end-to-end cold/cached bench smoke: the
      # cache-hit path must stay bit-exact and actually faster.
      note "service: scenario service suite + bench smoke"
      bdir=build-check/service
      if cmake -B "$bdir" -S . > "$bdir.cfg.log" 2>&1 \
          && cmake --build "$bdir" -j "$JOBS" \
              --target gc_tests bench_scenarios > "$bdir.build.log" 2>&1 \
          && "$bdir/tests/gc_tests" \
              --gtest_filter='FlowKeyTest.*:PartitionPoolTest.*:ScenarioServiceTest.*' \
          && "$bdir/bench/bench_scenarios" --spin-up 20 --tracer-steps 10 \
              --particles 500 --queries 4 \
              --cache "$bdir/bench_scenarios_cache"; then
        RESULT[service]="ok"
      else
        RESULT[service]="FAIL"; FAILED=1
      fi ;;
    chaos)
      # The resilience matrix: quarantine/probation state machine,
      # retries, deadlines + watchdog aborts, stop(deadline), the byte-
      # bounded flow cache, and the seeded chaos ensemble (bit-exact
      # results under injected faults, eviction pressure and on-disk
      # tampering). Shares the service stage's plain build flags but
      # gets its own tree so the stages can run independently.
      note "chaos: resilience + chaos ensemble suite"
      bdir=build-check/chaos
      if cmake -B "$bdir" -S . > "$bdir.cfg.log" 2>&1 \
          && cmake --build "$bdir" -j "$JOBS" --target gc_tests \
              > "$bdir.build.log" 2>&1 \
          && "$bdir/tests/gc_tests" \
              --gtest_filter='QuarantineTest.*:ResilienceTest.*:FlowCacheBoundTest.*:ChaosTest.*'; then
        RESULT[chaos]="ok"
      else
        RESULT[chaos]="FAIL"; FAILED=1
      fi ;;
    bench)
      # A quick traced run of the benchmark, so its own gates run on every
      # kernel change: the 32^3 AA-fused run equals the DB-split run
      # bit-exactly, mass drift, times_square rho/|u| sanity, bit-exact
      # scenario replay, and traces that parse. run.py builds bench_suite
      # from source into .bench_build/ and exits nonzero when a gate fails.
      note "bench: bench_suite quick run with its gates"
      if python3 bench_suite/run.py --workload all --quick --seconds 2 \
          --trace 1; then
        RESULT[bench]="ok"
      else
        RESULT[bench]="FAIL"; FAILED=1
      fi ;;
    lint)
      note "lint: gc_lint self-scan"
      bdir=build-check/lint
      if cmake -B "$bdir" -S . > "$bdir.cfg.log" 2>&1 \
          && cmake --build "$bdir" -j "$JOBS" --target gc_lint > "$bdir.build.log" 2>&1 \
          && "$bdir/tools/gc_lint/gc_lint" --root .; then
        RESULT[lint]="ok"
      else
        RESULT[lint]="FAIL"; FAILED=1
      fi ;;
    analyze)
      note "analyze: gc_analyze thread-safety self-scan"
      bdir=build-check/analyze
      if cmake -B "$bdir" -S . > "$bdir.cfg.log" 2>&1 \
          && cmake --build "$bdir" -j "$JOBS" --target gc_analyze \
              > "$bdir.build.log" 2>&1 \
          && "$bdir/tools/gc_analyze/gc_analyze" --root .; then
        RESULT[analyze]="ok"
      else
        RESULT[analyze]="FAIL"; FAILED=1
      fi ;;
    tidy)
      if ! command -v clang-tidy > /dev/null 2>&1; then
        RESULT[tidy]="skipped (clang-tidy not installed)"
        continue
      fi
      note "tidy: clang-tidy over src/"
      bdir=build-check/tidy
      if ! cmake -B "$bdir" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
          > "$bdir.cfg.log" 2>&1; then
        RESULT[tidy]="FAIL (configure)"; FAILED=1; continue
      fi
      if find src tools -name '*.cpp' -print0 \
          | xargs -0 -n 1 -P "$JOBS" clang-tidy -p "$bdir" --quiet \
          > build-check/tidy.log 2>&1; then
        RESULT[tidy]="ok"
      else
        RESULT[tidy]="FAIL (see build-check/tidy.log)"; FAILED=1
      fi ;;
    *)
      echo "check.sh: unknown stage '$stage'" >&2
      echo "stages: plain vec asan ubsan tsan equiv sparse service chaos bench lint analyze tidy" >&2
      exit 2 ;;
  esac
done

printf '\n%-8s %s\n' "stage" "result"
printf '%-8s %s\n' "-----" "------"
for stage in "${STAGES[@]}"; do
  printf '%-8s %s\n' "$stage" "${RESULT[$stage]:-not run}"
done
exit $FAILED
