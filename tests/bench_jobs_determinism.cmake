# Acceptance gate for the parallel experiment engine: every grid bench must
# produce byte-identical stdout at --jobs=1 (the serial baseline) and
# --jobs=4 (oversubscribed worker pool). Run via ctest:
#   cmake -DBENCH_DIR=<build>/bench -P bench_jobs_determinism.cmake
if(NOT DEFINED BENCH_DIR)
  message(FATAL_ERROR "pass -DBENCH_DIR=<dir with bench binaries>")
endif()
include(${CMAKE_CURRENT_LIST_DIR}/bench_compare.cmake)

set(flags --quick --scale=0.15 --iters=2)
foreach(bench sweep_matrix fig2_speedups fig3_breakdown claims_summary
        table1_base_stats)
  foreach(jobs 1 4)
    execute_process(
      COMMAND ${BENCH_DIR}/${bench} ${flags} --jobs=${jobs}
      OUTPUT_VARIABLE out_${jobs}
      ERROR_VARIABLE err_${jobs}
      RESULT_VARIABLE rc_${jobs})
    if(NOT rc_${jobs} EQUAL 0)
      message(FATAL_ERROR
        "${bench} --jobs=${jobs} failed (${rc_${jobs}}): ${err_${jobs}}")
    endif()
  endforeach()
  bench_expect_identical("${out_1}" "${out_4}"
    "${bench}: stdout differs between --jobs=1 and --jobs=4")
  message(STATUS "${bench}: --jobs=1 and --jobs=4 byte-identical")
endforeach()
