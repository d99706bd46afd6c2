#!/usr/bin/env bash
# Build and test the configurations CI covers, each with -DPARAGRAPH_WERROR=ON
# in its own build-<leg>/ tree, stopping at the first failing leg.
#
#   debug            CMAKE_BUILD_TYPE=Debug           ctest
#   release          CMAKE_BUILD_TYPE=Release         ctest
#   relwithdebinfo   CMAKE_BUILD_TYPE=RelWithDebInfo  ctest
#   asan-ubsan       PARAGRAPH_SANITIZE=address,undefined  ctest -L engine,
#                    then the core and trace suites the engine runs on but
#                    that carry no engine label — the shard planner and
#                    patch walk, the fused loop, the block pipeline and the
#                    hot-path equivalence suite:
#                    ctest -R "$core_suites" (below)
#   tsan             PARAGRAPH_SANITIZE=thread             ctest -L engine,
#                    then the same ctest -R "$core_suites" run
#   bench-selftest   python3 perfbench/tests/selftest.py: builds the
#                    benchmark (perfbench/) against src/ in .bench_build/
#                    and checks every workload's metrics and output checks
#
# Usage: tools/ci_matrix.sh [leg...]     (default: every leg, in that order)
# Environment: JOBS=N  parallel build and test jobs (default: nproc)

set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="${JOBS:-$(nproc)}"
core_suites='^(ShardPlan|ShardStitch|PatchPlan|SplitAndPatch|AnalyzeMany|BlockPipeline|HotPathEquivalence)\.'

all_legs=(debug release relwithdebinfo asan-ubsan tsan bench-selftest)
legs=("$@")
[[ ${#legs[@]} -eq 0 ]] && legs=("${all_legs[@]}")

run_leg() {
    local leg="$1"
    if [[ "$leg" == bench-selftest ]]; then
        echo "=== $leg: python3 perfbench/tests/selftest.py"
        (cd "$root" && python3 perfbench/tests/selftest.py)
        echo "=== $leg: ok"
        return
    fi
    local -a cmake_args=(-DPARAGRAPH_WERROR=ON)
    local -a ctest_args=(--output-on-failure -j "$jobs")
    local -a extra_ctest_args=()
    case "$leg" in
      debug)          cmake_args+=(-DCMAKE_BUILD_TYPE=Debug) ;;
      release)        cmake_args+=(-DCMAKE_BUILD_TYPE=Release) ;;
      relwithdebinfo) cmake_args+=(-DCMAKE_BUILD_TYPE=RelWithDebInfo) ;;
      asan-ubsan)     cmake_args+=(-DPARAGRAPH_SANITIZE=address,undefined)
                      ctest_args+=(-L engine)
                      extra_ctest_args=(-R "$core_suites")
                      # UBSan only warns by default; make a report fail
                      # its test.
                      export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" ;;
      tsan)           cmake_args+=(-DPARAGRAPH_SANITIZE=thread)
                      ctest_args+=(-L engine)
                      extra_ctest_args=(-R "$core_suites") ;;
      *) echo "ci_matrix: unknown leg '$leg' (legs: ${all_legs[*]})" >&2
         return 2 ;;
    esac
    command -v ninja >/dev/null 2>&1 && cmake_args+=(-G Ninja)

    local dir="$root/build-$leg"
    echo "=== $leg: configure + build in ${dir#"$root"/}"
    cmake -B "$dir" -S "$root" "${cmake_args[@]}"
    cmake --build "$dir" -j "$jobs"
    echo "=== $leg: ctest ${ctest_args[*]}"
    ctest --test-dir "$dir" "${ctest_args[@]}"
    if [[ ${#extra_ctest_args[@]} -gt 0 ]]; then
        echo "=== $leg: ctest ${extra_ctest_args[*]}"
        ctest --test-dir "$dir" --output-on-failure -j "$jobs" \
            "${extra_ctest_args[@]}"
    fi
    echo "=== $leg: ok"
}

for leg in "${legs[@]}"; do
    run_leg "$leg"
done
echo "ci_matrix: ${#legs[@]} leg(s) passed: ${legs[*]}"
