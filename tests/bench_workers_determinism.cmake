# Acceptance gate for the bounded worker pool: bench output must be a pure
# function of the simulated experiment, never of how many OS threads
# multiplex the node contexts. Sweeps --workers across 1, a strict subset,
# and an over-subscription (clamped) value and compares stdout byte for
# byte; wallclock_scaling additionally sweeps its --workers-list. Run via
# ctest:
#   cmake -DBENCH_DIR=<build>/bench -P bench_workers_determinism.cmake
if(NOT DEFINED BENCH_DIR)
  message(FATAL_ERROR "pass -DBENCH_DIR=<dir with bench binaries>")
endif()
include(${CMAKE_CURRENT_LIST_DIR}/bench_compare.cmake)

# Grid benches: one reference run at --workers=1, then wider pools. 99
# over-subscribes every --quick cluster size, so it exercises the clamp.
set(flags --quick --scale=0.15 --iters=2 --gang=parallel --jobs=2)
foreach(bench sweep_matrix fig2_speedups claims_summary)
  set(reference "")
  foreach(workers 1 2 99)
    execute_process(
      COMMAND ${BENCH_DIR}/${bench} ${flags} --workers=${workers}
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
        "${bench} --workers=${workers} failed (${rc}): ${err}")
    endif()
    if(reference STREQUAL "")
      set(reference "${out}")
    else()
      bench_expect_identical("${out}" "${reference}"
        "${bench}: stdout differs between --workers=1 and --workers=${workers}")
    endif()
  endforeach()
  message(STATUS "${bench}: --workers 1/2/99 byte-identical")
endforeach()

# The scaling bench prints only simulation-determined check lines to stdout
# (timings go to stderr/JSON), so any two worker sweeps must match.
set(sweep_a 1)
set(sweep_b 1,2)
foreach(tag a b)
  execute_process(
    COMMAND ${BENCH_DIR}/wallclock_scaling --quick --workers-list=${sweep_${tag}}
    OUTPUT_VARIABLE out_${tag}
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "wallclock_scaling --workers-list=${sweep_${tag}} failed (${rc}): ${err}")
  endif()
endforeach()
bench_expect_identical("${out_a}" "${out_b}"
  "wallclock_scaling: check lines differ across --workers-list sweeps")
message(STATUS "wallclock_scaling: check lines identical across sweeps")
